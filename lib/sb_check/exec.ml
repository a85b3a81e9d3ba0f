open Sb_sim

type action = Crash | Omit | Delay

type decision = (int * action) list

type config = {
  ctx : Ctx.t;
  scheme : Sb_broadcast.Session.scheme;
  sender : int;
  value : Msg.t;
  faulty : Sb_util.Subset.t;
}

type status = Mid of Envelope.t list | Terminal of Msg.t array

(* What a child needs from its parent besides the decision prefix:
   [hist] is the per-party rolling hash chain over the inboxes
   delivered up to and including the parent's Mid round, and
   [out_keys] the envelope keys of that round's outgoing queue, in
   queue order. Sessions are deterministic functions of (config,
   delivered history), so the chain — not the opaque closure state —
   canonically identifies each party's local state. *)
type frontier = { hist : string array; out_keys : string list Lazy.t }

type snapshot = {
  digest : string;
  status : status;
  decisions : decision list;
  frontier : frontier;
}

let total_rounds config = config.scheme.Sb_broadcast.Session.rounds config.ctx

let crashed_before decisions i =
  List.exists (List.exists (fun (p, a) -> p = i && a = Crash)) decisions

(* All checker sessions share one sid; it only namespaces message tags
   within a run, and the checker drives exactly one session. *)
let sid = "chk"

let endpoint_key = function
  | Envelope.Party i -> "P" ^ string_of_int i
  | Envelope.Func -> "F"
  | Envelope.All -> "*"

let envelope_key (e : Envelope.t) =
  String.concat ""
    [
      endpoint_key e.Envelope.src; ">"; endpoint_key e.Envelope.dst; ":";
      Msg.serialize e.Envelope.body;
    ]

let envelopes_key envs = String.concat ";" (List.map envelope_key envs)

(* Mutable replay state: the live sessions plus the fault bookkeeping
   interception consults. The in-flight queue is threaded through the
   round functions instead, keyed or not. *)
type state = {
  cfg : config;
  sessions : Sb_broadcast.Session.t array;
  crash_round : int array;
  held : (int, Envelope.t list ref) Hashtbl.t;  (* due round -> held, arrival order *)
}

let create config =
  let n = config.ctx.Ctx.n in
  (* Substrate schemes never consume their rng (they are deterministic
     given the ctx); a fixed stream keeps the signature satisfied. *)
  let rng = Sb_util.Rng.create 0 in
  let sessions =
    Array.init n (fun me ->
        config.scheme.Sb_broadcast.Session.create config.ctx ~rng:(Sb_util.Rng.split rng)
          ~sid ~sender:config.sender ~me
          ~value:(if me = config.sender then Some config.value else None))
  in
  { cfg = config; sessions; crash_round = Array.make n max_int; held = Hashtbl.create 8 }

let inbox queue me = List.filter (fun e -> Envelope.delivered_to e me) queue

(* Step every party on [inbox_of me] — crashed parties still step on
   their (possibly empty) inboxes, exactly as the real network steps
   honest-but-silenced parties. Returns the round's outgoing traffic
   in party-id order, as sent. *)
let step_round st ~round inbox_of =
  let out = ref [] in
  for me = st.cfg.ctx.Ctx.n - 1 downto 0 do
    let inbox = inbox_of me in
    out := st.sessions.(me).Sb_broadcast.Session.step ~round ~inbox @ !out
  done;
  !out

(* Interception, mirroring Inject.compile: crashes are tallied first
   and silence everything from the sender (self-delivery and broadcast
   included); omissions and delays are all-or-nothing for the round —
   the clean benign model, matching [drop:1:p->*@r] / [delay:1:p->*@r]
   — and touch only distinct-endpoint point-to-point envelopes; held
   envelopes due this round re-enter ahead of the surviving fresh
   traffic. [open_round] tallies the crashes and returns the released
   envelopes; [admits] decides one as-sent envelope, holding it when
   delayed. *)
let open_round st ~round (decision : decision) =
  List.iter
    (fun (p, a) ->
      if a = Crash then st.crash_round.(p) <- min st.crash_round.(p) round)
    decision;
  match Hashtbl.find_opt st.held round with
  | Some l ->
      Hashtbl.remove st.held round;
      List.rev !l
  | None -> []

let admits st ~round (decision : decision) (e : Envelope.t) =
  match Envelope.src_party e with
  | Some i when round >= st.crash_round.(i) -> false
  | src -> (
      match (src, Envelope.dst_party e) with
      | Some s, Some d when s <> d -> (
          match List.assoc_opt s decision with
          | Some Omit -> false
          | Some Delay ->
              let due = round + 1 in
              (match Hashtbl.find_opt st.held due with
              | Some l -> l := e :: !l
              | None -> Hashtbl.add st.held due (ref [ e ]));
              false
          | Some Crash | None -> true)
      | _ -> true)

let intercept st ~round decision out =
  let released = open_round st ~round decision in
  released @ List.filter (admits st ~round decision) out

(* The same interception over [out] paired with its keys: released
   envelopes are keyed here, surviving fresh ones keep theirs. *)
let intercept_keyed st ~round decision out keys =
  let released = open_round st ~round decision in
  List.map (fun e -> (e, envelope_key e)) released
  @ List.filter (fun (e, _) -> admits st ~round decision e) (List.combine out keys)

(* Canonical state identity over the keyed in-flight [queue]. Crash
   flags are booleans, not rounds: once a party is crashed, every
   future filter decision is the same whatever round it died in, and
   its delivered history is already in [hist] — so crash-at-r and
   crash-at-r' schedules that produced the same deliveries merge. At
   the terminal (round = total) the crash flags and still-held
   envelopes are dead state — no decision round remains that could
   consult or release them — so they are dropped and e.g. omit-all and
   delay-all of the final round's traffic reach the same state. *)
let digest_of st ~round ~terminal ~hist queue =
  let crashes =
    if terminal then ""
    else
      String.init st.cfg.ctx.Ctx.n (fun i ->
          if st.crash_round.(i) = max_int then '-' else 'x')
  in
  let held =
    if terminal then ""
    else
      Hashtbl.fold (fun due l acc -> (due, envelopes_key (List.rev !l)) :: acc) st.held []
      |> List.sort compare
      |> List.map (fun (due, k) -> string_of_int due ^ "=" ^ k)
      |> String.concat "&"
  in
  Digest.string
    (String.concat "#"
       [
         string_of_int round;
         crashes;
         String.concat "!" (Array.to_list hist);
         String.concat ";" (List.map snd queue);
         held;
       ])

let spent = { hist = [||]; out_keys = Lazy.from_val [] }

(* Digest the state entering round [List.length decisions] — [hist]
   covers every earlier round's deliveries, [queue] is this round's —
   then run the round's deliveries. A Mid state extends the chain by
   this round's inboxes, reusing the queue's keys; the final round is
   delivery-only (the real network discards its outgoing queue before
   interception) and its history never reaches a digest, so it is not
   keyed. *)
let settle st ~decisions ~hist queue =
  let round = List.length decisions in
  let terminal = round = total_rounds st.cfg in
  let digest = digest_of st ~round ~terminal ~hist queue in
  if terminal then begin
    let envs = List.map fst queue in
    let _discarded = step_round st ~round (inbox envs) in
    let results = Array.map (fun s -> s.Sb_broadcast.Session.result ()) st.sessions in
    { digest; status = Terminal results; decisions; frontier = spent }
  end
  else
    let hist = Array.copy hist in
    let out =
      step_round st ~round (fun me ->
          let mine = List.filter (fun (e, _) -> Envelope.delivered_to e me) queue in
          hist.(me) <- Digest.string (hist.(me) ^ "|" ^ String.concat ";" (List.map snd mine));
          List.map fst mine)
    in
    {
      digest;
      status = Mid out;
      decisions;
      frontier = { hist; out_keys = lazy (List.map envelope_key out) };
    }

let mid_exn snap =
  match snap.status with
  | Mid out -> out
  | Terminal _ -> invalid_arg "Sb_check.Exec: a terminal state has no children"

(* [st] has just stepped [parent]'s Mid round, producing [out] — the
   parent's queue, envelope for envelope, since replay is
   deterministic — so the parent's keys pair with it by position. *)
let extend st parent d out =
  let round = List.length parent.decisions in
  let queue =
    intercept_keyed st ~round d out (Lazy.force parent.frontier.out_keys)
  in
  settle st ~decisions:(parent.decisions @ [ d ]) ~hist:parent.frontier.hist queue

let start config =
  let st = create config in
  (st, settle st ~decisions:[] ~hist:(Array.make config.ctx.Ctx.n "") [])

let root config = snd (start config)

let child config parent d =
  ignore (mid_exn parent);
  (* Sessions are mutable closures and cannot be snapshotted: rebuild
     them and re-step the prefix with the same inboxes, unkeyed. *)
  let st = create config in
  let round, queue =
    List.fold_left
      (fun (round, queue) decision ->
        let out = step_round st ~round (inbox queue) in
        (round + 1, intercept st ~round decision out))
      (0, []) parent.decisions
  in
  extend st parent d (step_round st ~round (inbox queue))

let replay config decisions =
  let st, root = start config in
  List.fold_left (fun snap d -> extend st snap d (mid_exn snap)) root decisions
