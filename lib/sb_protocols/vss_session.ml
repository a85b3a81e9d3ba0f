open Sb_sim
open Sb_crypto

let local_rounds = 3

type t = {
  ctx : Ctx.t;
  dealer : int;
  me : int;
  tag_comm : string;
  tag_share : string;
  tag_complain : string;
  tag_resp : string;
  tag_reveal : string;
  (* Dealer side *)
  dealt : Pedersen.dealt option;
  secret_in : Field.t option;
  (* Receiver side *)
  mutable commitment : Pedersen.commitment option;
  mutable my_share : Pedersen.share option;
  mutable complainers : int list;
  mutable disqualified : bool;
  (* Verified reveals indexed by source party; the first valid reveal
     from a source wins. *)
  reveals : Pedersen.share option array;
}

let tagname dealer suffix = Printf.sprintf "vss:%d:%s" dealer suffix

(* The five per-session wire tags are pure functions of the dealer
   index, and the samplers create n sessions per party per Monte-Carlo
   run — so they are served from a table built once at module init
   (before any worker domain spawns; the formatted strings are
   identical to the sprintf fallback, so wire bytes don't change). *)
let max_cached_dealer = 128

let tags dealer =
  ( tagname dealer "comm",
    tagname dealer "share",
    tagname dealer "complain",
    tagname dealer "resp",
    tagname dealer "reveal" )

let tag_table = Array.init max_cached_dealer tags

let create ctx ~rng ~dealer ~me ~secret =
  assert ((me = dealer) = Option.is_some secret);
  let dealt =
    Option.map
      (fun secret ->
        Pedersen.deal rng ~threshold:ctx.Ctx.thresh ~parties:ctx.Ctx.n ~secret)
      secret
  in
  let tag_comm, tag_share, tag_complain, tag_resp, tag_reveal =
    if dealer < max_cached_dealer then tag_table.(dealer) else tags dealer
  in
  {
    ctx;
    dealer;
    me;
    tag_comm;
    tag_share;
    tag_complain;
    tag_resp;
    tag_reveal;
    dealt;
    secret_in = secret;
    commitment = None;
    my_share = None;
    complainers = [];
    disqualified = false;
    reveals = Array.make ctx.Ctx.n None;
  }

let decode_commitment ctx m =
  match m with
  | Msg.List elts when List.length elts = ctx.Ctx.thresh + 1 ->
      let decoded = List.filter_map (function Msg.Ge g -> Some g | _ -> None) elts in
      if List.length decoded = List.length elts then Some (Array.of_list decoded) else None
  | _ -> None

let decode_share_pair index = function
  | Msg.List [ Msg.Fe value; Msg.Fe blind ] -> Some { Pedersen.index; value; blind }
  | _ -> None

let encode_share (s : Pedersen.share) = Msg.List [ Msg.Fe s.Pedersen.value; Msg.Fe s.Pedersen.blind ]

(* Every share check goes through the content-keyed memo: the
   complain-round check of my own share is the one every receiver
   repeats when I reveal it, and the one [reveal_msgs] repeats. *)
let my_share_valid t =
  match (t.commitment, t.my_share) with
  | Some c, Some s -> Once.verify_share c s
  | _ -> false

(* Trace_ctx phase names for the local rounds (see the mli round
   glossary); sessions driven past round 3 show up as vss.idle. *)
let phase_name = function
  | 0 -> "vss.deal"
  | 1 -> "vss.verify"
  | 2 -> "vss.complain"
  | 3 -> "vss.judge"
  | _ -> "vss.idle"

let step_impl t ~round ~inbox =
  match round with
  | 0 -> (
      (* Deal: broadcast commitment, send shares point-to-point. *)
      match t.dealt with
      | None -> []
      | Some d ->
          t.commitment <- Some d.Pedersen.commitment;
          t.my_share <- Some d.Pedersen.shares.(t.me);
          Envelope.broadcast ~src:t.me
            (Msg.Tag
               ( t.tag_comm,
                 Msg.List
                   (Array.to_list (Array.map (fun g -> Msg.Ge g) d.Pedersen.commitment)) ))
          :: List.filter_map
               (fun j ->
                 if j = t.me then None
                 else
                   Some
                     (Envelope.make ~src:t.me ~dst:j
                        (Msg.Tag (t.tag_share, encode_share d.Pedersen.shares.(j)))))
               (List.init t.ctx.Ctx.n Fun.id))
  | 1 ->
      (* Receive commitment and share; complain if anything is off. *)
      if t.me <> t.dealer then begin
        (match Wire.first_from ~tag:t.tag_comm ~src:t.dealer inbox with
        | Some m -> t.commitment <- decode_commitment t.ctx m
        | None -> ());
        match Wire.first_from ~tag:t.tag_share ~src:t.dealer inbox with
        | Some m -> t.my_share <- decode_share_pair t.me m
        | None -> ()
      end;
      let unhappy = not (my_share_valid t) in
      [ Envelope.broadcast ~src:t.me (Msg.Tag (t.tag_complain, Msg.Bit unhappy)) ]
  | 2 ->
      (* Record broadcast complaints; the dealer answers them. *)
      t.complainers <-
        List.filter_map
          (fun (src, m) -> match m with Msg.Bit true -> Some src | _ -> None)
          (Wire.tagged_from_parties ~tag:t.tag_complain inbox);
      (match t.dealt with
      | Some d when t.complainers <> [] ->
          let answers =
            List.map
              (fun j ->
                Msg.List
                  [ Msg.Int j; Msg.Fe d.Pedersen.shares.(j).Pedersen.value;
                    Msg.Fe d.Pedersen.shares.(j).Pedersen.blind ])
              t.complainers
          in
          [ Envelope.broadcast ~src:t.me (Msg.Tag (t.tag_resp, Msg.List answers)) ]
      | _ -> [])
  | 3 ->
      (* Judge: every complaint needs a valid broadcast response. *)
      let responses =
        match Wire.first_from ~tag:t.tag_resp ~src:t.dealer inbox with
        | Some (Msg.List answers) ->
            List.filter_map
              (function
                | Msg.List [ Msg.Int j; Msg.Fe value; Msg.Fe blind ] ->
                    Some (j, { Pedersen.index = j; value; blind })
                | _ -> None)
              answers
        | Some _ | None -> []
      in
      (match t.commitment with
      | None -> t.disqualified <- true
      | Some c ->
          let answered j =
            List.exists (fun (i, s) -> i = j && Once.verify_share c s) responses
          in
          if not (List.for_all answered t.complainers) then t.disqualified <- true
          else if List.mem t.me t.complainers then
            (* Adopt the (valid) public response as my share. *)
            t.my_share <- List.assoc_opt t.me responses);
      []
  | _ -> []

let step t ~round ~inbox =
  if Sb_obs.Trace_ctx.enabled () then begin
    let sp = Sb_obs.Trace_ctx.begin_span ~cat:"phase" (phase_name round) in
    let out = step_impl t ~round ~inbox in
    Sb_obs.Trace_ctx.end_span sp;
    out
  end
  else step_impl t ~round ~inbox

let disqualified t = t.disqualified

let reveal_msgs t =
  if t.disqualified || not (my_share_valid t) then []
  else
    match t.my_share with
    | Some s -> [ Envelope.broadcast ~src:t.me (Msg.Tag (t.tag_reveal, encode_share s)) ]
    | None -> []

let collect_reveals t inbox =
  match t.commitment with
  | None -> ()
  | Some c ->
      List.iter
        (fun (e : Envelope.t) ->
          match (e.Envelope.src, e.Envelope.body) with
          | Envelope.Party src, Msg.Tag (tag, m)
            when src >= 0 && src < Array.length t.reveals
                 && Option.is_none t.reveals.(src) && String.equal tag t.tag_reveal -> (
              match decode_share_pair src m with
              | Some s when Once.verify_share c s -> t.reveals.(src) <- Some s
              | Some _ | None -> ())
          | _ -> ())
        inbox

(* In source order, which is share-index order. *)
let good_shares t =
  Array.fold_right (fun r acc -> match r with Some s -> s :: acc | None -> acc) t.reveals []

let reconstruct_with t f =
  if t.disqualified then None
  else
    let shares = good_shares t in
    if List.length shares >= t.ctx.Ctx.thresh + 1 then Some (f shares) else None

let secret t = reconstruct_with t Pedersen.reconstruct
let blind t = reconstruct_with t Pedersen.reconstruct_blind

let dealer_opening t =
  match (t.secret_in, t.dealt) with
  | Some secret, Some d -> Some (secret, d.Pedersen.blind0)
  | _ -> None
