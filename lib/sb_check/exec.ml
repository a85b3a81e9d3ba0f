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
   canonically identifies each party's local state. Every state of
   one root's search reuses its [kernel]'s routers. *)
type frontier = { hist : string array; out_keys : string list Lazy.t; kernel : Round.t }

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

(* A single broadcast session as a Protocol.t: the parties the checker
   steps, and what Network.run runs to replay a witness. *)
let single_session (scheme : Sb_broadcast.Session.scheme) ~sender ~value =
  {
    Protocol.name = "single-" ^ scheme.Sb_broadcast.Session.scheme_name;
    rounds = scheme.Sb_broadcast.Session.rounds;
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input:_ ->
        let s =
          scheme.Sb_broadcast.Session.create ctx ~rng ~sid ~sender ~me:id
            ~value:(if id = sender then Some value else None)
        in
        { Party.step = s.Sb_broadcast.Session.step; output = s.Sb_broadcast.Session.result });
  }

(* Mutable replay state: the live parties, the round kernel they step
   through, and the fault bookkeeping interception consults. *)
type state = {
  cfg : config;
  kernel : Round.t;
  parties : (int * Party.t) list;
  crashed : bool array;
  mutable held : Envelope.t list;  (* delayed into the next round, newest first *)
}

(* A fresh run on [kernel]: empty mailboxes and all n parties built
   afresh, party 0 first. Crashed parties are stepped too, exactly as
   the real network steps honest-but-silenced parties. Substrate
   schemes never consume their rng (they are deterministic given the
   ctx); a fixed stream keeps the signature satisfied. *)
let create config kernel =
  let n = config.ctx.Ctx.n in
  let protocol = single_session config.scheme ~sender:config.sender ~value:config.value in
  let rng = Sb_util.Rng.create 0 in
  let parties =
    List.init n (fun id ->
        let rng = Sb_util.Rng.split rng in
        (id, protocol.Protocol.make_party config.ctx ~rng ~id ~input:Msg.Unit))
  in
  Round.clear kernel;
  { cfg = config; kernel; parties; crashed = Array.make n false; held = [] }

let step st ~round = Round.step st.kernel ~round st.parties

(* Interception, mirroring Inject.compile: crashes are tallied first
   and silence everything from the sender (self-delivery and broadcast
   included); omissions and delays are all-or-nothing for the round —
   the clean benign model, matching [drop:1:p->*@r] / [delay:1:p->*@r]
   — and touch only links ({!Envelope.is_link}). Returns the held
   envelopes due this round, which re-enter ahead of the fresh
   traffic, and the fresh envelopes admitted, holding delayed ones. *)
let intercept st (decision : decision) out =
  List.iter (fun (p, a) -> if a = Crash then st.crashed.(p) <- true) decision;
  let released = List.rev st.held in
  st.held <- [];
  let admits (e : Envelope.t) =
    match Envelope.src_party e with
    | Some i when st.crashed.(i) -> false
    | Some s when Envelope.is_link e -> (
        match List.assoc_opt s decision with
        | Some Omit -> false
        | Some Delay ->
            st.held <- e :: st.held;
            false
        | Some Crash | None -> true)
    | _ -> true
  in
  (released, List.filter admits out)

(* The keys of [sub], a subsequence of [envs] whose keys are [keys],
   matched by identity so nothing is serialised again: the admitted
   part of a keyed queue, or a party's inbox from it (in queue order,
   by Router's ordering invariant). *)
let rec sub_keys envs keys sub =
  match (sub, envs, keys) with
  | [], _, _ -> []
  | e :: sub', e' :: envs', k :: keys' when e == e' -> k :: sub_keys envs' keys' sub'
  | _, _ :: envs', _ :: keys' -> sub_keys envs' keys' sub
  | _ -> assert false

(* Canonical state identity, over the in-flight queue's [keys]. Crash
   flags are booleans, not rounds: once a party is crashed, every
   future filter decision is the same whatever round it died in, and
   its delivered history is already in [hist] — so crash-at-r and
   crash-at-r' schedules that produced the same deliveries merge. At
   the terminal (round = total) the crash flags and still-held
   envelopes are dead state — no decision round remains that could
   consult or release them — so they are dropped and e.g. omit-all and
   delay-all of the final round's traffic reach the same state. *)
let digest_of st ~round ~terminal ~hist keys =
  let crashes =
    if terminal then ""
    else
      String.init st.cfg.ctx.Ctx.n (fun i -> if st.crashed.(i) then 'x' else '-')
  in
  let held =
    if terminal || st.held = [] then ""
    else string_of_int round ^ "=" ^ envelopes_key (List.rev st.held)
  in
  Digest.string
    (String.concat "#"
       [
         string_of_int round;
         crashes;
         String.concat "!" (Array.to_list hist);
         String.concat ";" keys;
         held;
       ])

(* Digest the state entering round [List.length decisions] — [hist]
   covers every earlier round's deliveries, [queue] with its [keys] is
   this round's — then route the queue and step the round. A Mid state
   extends the chain by this round's inboxes, reusing the queue's
   keys; the final round is delivery-only (the real network discards
   its outgoing queue before interception) and its history never
   reaches a digest, so it is not keyed. *)
let settle st ~decisions ~hist queue keys =
  let round = List.length decisions in
  let terminal = round = total_rounds st.cfg in
  let digest = digest_of st ~round ~terminal ~hist keys in
  Round.route st.kernel queue ~replies:[];
  if terminal then begin
    let _discarded = step st ~round in
    let results = Array.of_list (List.map (fun (_, p) -> p.Party.output ()) st.parties) in
    let frontier = { hist = [||]; out_keys = Lazy.from_val []; kernel = st.kernel } in
    { digest; status = Terminal results; decisions; frontier }
  end
  else
    let mailboxes = Round.mailboxes st.kernel in
    let hist =
      Array.mapi
        (fun me h ->
          let mine = sub_keys queue keys (Router.inbox mailboxes me) in
          Digest.string (h ^ "|" ^ String.concat ";" mine))
        hist
    in
    let out = step st ~round in
    {
      digest;
      status = Mid out;
      decisions;
      frontier = { hist; out_keys = lazy (List.map envelope_key out); kernel = st.kernel };
    }

let mid_exn snap =
  match snap.status with
  | Mid out -> out
  | Terminal _ -> invalid_arg "Sb_check.Exec: a terminal state has no children"

(* [st] has just stepped [parent]'s Mid round, producing [out] — the
   parent's queue, envelope for envelope, since replay is
   deterministic — so the parent's keys pair with it by position and
   the admitted envelopes keep theirs; released ones are keyed here. *)
let extend st parent d out =
  let released, admitted = intercept st d out in
  let keys =
    List.map envelope_key released
    @ sub_keys out (Lazy.force parent.frontier.out_keys) admitted
  in
  settle st ~decisions:(parent.decisions @ [ d ]) ~hist:parent.frontier.hist
    (released @ admitted) keys

let start config =
  let n = config.ctx.Ctx.n in
  let st = create config (Round.create ~cap:0 n) in
  (st, settle st ~decisions:[] ~hist:(Array.make n "") [] [])

let root config = snd (start config)

let child config parent d =
  ignore (mid_exn parent);
  (* Parties are mutable closures and cannot be snapshotted: rebuild
     them and re-step the prefix with the same inboxes, unkeyed. *)
  let st = create config parent.frontier.kernel in
  let round =
    List.fold_left
      (fun round decision ->
        let released, admitted = intercept st decision (step st ~round) in
        Round.route st.kernel (released @ admitted) ~replies:[];
        round + 1)
      0 parent.decisions
  in
  extend st parent d (step st ~round)

let replay config decisions =
  let st, root = start config in
  List.fold_left (fun snap d -> extend st snap d (mid_exn snap)) root decisions
