open Sb_sim
open Sb_util

let default = Msg.Bit false

(* The string every signature in session [sid] covers for value [v]. *)
let base ~sid v = "ds:" ^ sid ^ ":" ^ Msg.serialize v

(* Wire format: List [value; List [List [Int signer; Str sig]; ...]] *)
let encode v sigs =
  Msg.List [ v; Msg.List (List.map (fun (i, s) -> Msg.List [ Msg.Int i; Msg.Str s ]) sigs) ]

let decode_chain = function
  | Msg.List sigs ->
      let decode_sig = function
        | Msg.List [ Msg.Int i; Msg.Str s ] -> Some (i, s)
        | _ -> None
      in
      let decoded = List.filter_map decode_sig sigs in
      if List.length decoded = List.length sigs then Some decoded else None
  | _ -> None

(* Marks the chain's signer set in the session's scratch vector and
   reads off sender/own membership, clearing the marked bits again
   before returning so the scratch costs O(chain) per call. Returns
   [None] if any signer index is duplicated or out of range: one pass
   replaces the seed's sort_uniq-based distinctness check plus two
   list scans (sender membership, own-signature lookup); an
   out-of-range signer made the seed's signature verification fail, so
   collapsing it into [None] keeps chain validity decisions
   identical. *)
let signer_mask scratch ~n ~sender ~me chain =
  let rec mark = function
    | [] -> true
    | (i, _) :: rest ->
        if i < 0 || i >= n || Bitvec.Mut.get scratch i then false
        else begin
          Bitvec.Mut.set scratch i true;
          mark rest
        end
  in
  let ok = mark chain in
  let res =
    if ok then Some (Bitvec.Mut.get scratch sender, Bitvec.Mut.get scratch me)
    else None
  in
  (* Clear exactly the in-range bits this chain touched; on the failure
     path the unmarked suffix is already false, so re-clearing it is a
     no-op. *)
  List.iter (fun (i, _) -> if i >= 0 && i < n then Bitvec.Mut.set scratch i false) chain;
  res

let scheme =
  {
    Session.scheme_name = "dolev-strong";
    rounds = (fun ctx -> ctx.Ctx.thresh + 1);
    create =
      (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
        assert ((me = sender) = Option.is_some value);
        let n = ctx.Ctx.n in
        let t = ctx.Ctx.thresh in
        let sigs = ctx.Ctx.sigs in
        let accepted : Msg.t list ref = ref [] in
        (* Values to relay next round, with their signature sets. *)
        let outbox : (Msg.t * (int * string) list) list ref = ref [] in
        let scratch = Bitvec.Mut.create n in
        let send_all m = Ctx.to_all ctx ~src:me (Session.wrap ~sid m) in
        (* The acceptance guard evaluates its cheap conjuncts (relay
           budget and value not yet accepted, read off the raw message
           before the chain is decoded; then chain length and signer
           set) before the one SHA-256 per link that [Sig.verify]
           costs, so the ~n relays of an already-accepted value are
           dropped undecoded and unverified. Every conjunct is pure
           ([signer_mask] restores its scratch), so the order changes
           no decision; every chain that is accepted is still verified
           link by link. *)
        let fresh v =
          List.length !accepted < 2 && not (List.exists (Msg.equal v) !accepted)
        in
        let process ~round inbox =
          List.iter
            (fun (e : Envelope.t) ->
              match Session.unwrap ~sid e.Envelope.body with
              | Some (Msg.List [ v; links ]) when fresh v -> (
                  match decode_chain links with
                  | Some chain when List.length chain >= round -> (
                      (* Signatures are prepended as the value travels,
                         so the sender's signature sits at the tail. *)
                      match signer_mask scratch ~n ~sender ~me chain with
                      | Some (true, signed_by_me) ->
                          let b = base ~sid v in
                          if
                            List.for_all
                              (fun (i, s) -> Sb_crypto.Sig.verify sigs ~signer:i b s)
                              chain
                          then begin
                            accepted := v :: !accepted;
                            if round <= t && not signed_by_me then
                              outbox :=
                                (v, (me, Sb_crypto.Sig.sign sigs ~signer:me b) :: chain)
                                :: !outbox
                          end
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
            inbox
        in
        let step ~round ~inbox =
          process ~round inbox;
          if round = 0 then begin
            match value with
            | Some v ->
                accepted := [ v ];
                let chain = [ (me, Sb_crypto.Sig.sign sigs ~signer:me (base ~sid v)) ] in
                send_all (encode v chain)
            | None -> []
          end
          else begin
            let out =
              List.concat_map (fun (v, chain) -> send_all (encode v chain)) !outbox
            in
            outbox := [];
            out
          end
        in
        let result () = match !accepted with [ v ] -> v | _ -> default in
        { Session.step; result });
  }
