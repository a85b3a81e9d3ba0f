type comm = {
  broadcasts : int;
  broadcast_bytes : int;
  p2p_bytes : int;
  deliveries : int;
}

type result = {
  outputs : (int * Msg.t) list;
  adv_output : Msg.t;
  corrupted : int list;
  rounds_used : int;
  p2p_messages : int;
  trace : Trace.t;
  comm : comm option;
}

let log_src = Logs.Src.create "sb.network" ~doc:"simulated network round events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Observability handles. Interned once; every update is guarded by
   [Metrics.enabled] so a disabled run pays one boolean load per round.
   None of this touches the split RNG streams: seeded protocol outputs
   are identical with metrics on or off. *)
let m_runs = Sb_obs.Metrics.counter "sim.runs"
let m_rounds = Sb_obs.Metrics.counter "sim.rounds"
let m_honest = Sb_obs.Metrics.counter "sim.envelopes.honest"
let m_adv = Sb_obs.Metrics.counter "sim.envelopes.adv"
let m_func = Sb_obs.Metrics.counter "sim.envelopes.func"
let m_bcast = Sb_obs.Metrics.counter "sim.broadcasts"
let m_p2p = Sb_obs.Metrics.counter "sim.p2p"
let m_bytes_bcast = Sb_obs.Metrics.counter "sim.bytes.broadcast"
let m_bytes_p2p = Sb_obs.Metrics.counter "sim.bytes.p2p"
let m_forged = Sb_obs.Metrics.counter "sim.forgeries_dropped"
let h_round_us = Sb_obs.Metrics.histogram "sim.round_duration_us"

type interceptor = round:int -> Envelope.t list -> Envelope.t list

(* A round runs four phases, numbered in the loop below and named as
   its trace spans: collect, rush, intercept, route. The Round kernel
   does collect and the routing step of route, the parts with no
   metrics and no tracing; the model checker's executor runs it too. *)
let run (ctx : Ctx.t) ~rng ~(protocol : Protocol.t) ~(adversary : Adversary.t) ~inputs
    ?(aux = Msg.Unit) ?(record_trace = true) ?(record_comm = false)
    ?(reuse_envelopes = false) ?faults () =
  let n = ctx.n in
  if Array.length inputs <> n then invalid_arg "Network.run: wrong number of inputs";
  (* Envelope recycling mutates records two rounds after allocation;
     anything that retains envelopes across rounds — the run trace,
     delay-fault re-injection queues — would see them change under its
     feet. (Adversaries that stash delivered envelopes across rounds
     are equally incompatible; that contract is documented, not
     checkable here.) *)
  if reuse_envelopes && (record_trace || Option.is_some faults) then
    invalid_arg "Network.run: reuse_envelopes requires record_trace:false and no faults";
  (* Independent randomness streams, in a fixed order for reproducibility.
     The fault stream is split last, and only when a fault hook is
     installed, so fault-free runs replay the exact seed streams. *)
  let party_rngs = Array.init n (fun _ -> Sb_util.Rng.split rng) in
  let adv_rng = Sb_util.Rng.split rng in
  let func_rng = Sb_util.Rng.split rng in
  let intercept =
    match faults with
    | None -> None
    | Some make -> Some (make ~rng:(Sb_util.Rng.split rng))
  in
  let corrupted = adversary.choose_corrupt ctx ~rng:adv_rng in
  assert (Sb_util.Subset.is_valid n corrupted);
  assert (List.length corrupted <= ctx.thresh);
  let is_corrupt = Array.make n false in
  List.iter (fun i -> is_corrupt.(i) <- true) corrupted;
  let honest = List.filter (fun i -> not is_corrupt.(i)) (List.init n Fun.id) in
  let parties =
    List.map
      (fun id -> (id, protocol.make_party ctx ~rng:party_rngs.(id) ~id ~input:inputs.(id)))
      honest
  in
  let functionality =
    match protocol.make_functionality with
    | None -> Functionality.none
    | Some make -> make ctx ~rng:func_rng
  in
  let strategy =
    adversary.init ctx ~rng:adv_rng ~corrupted
      ~inputs:(List.map (fun i -> (i, inputs.(i))) corrupted)
      ~aux
  in
  let total_rounds = protocol.rounds ctx in
  (* Preallocating mailbox capacity under reuse avoids the first
     rounds' doubling-growth copies; capacity is retained across the
     run either way. *)
  let kernel = Round.create ~cap:(if reuse_envelopes then n else 0) n in
  (* Monte-Carlo sampling passes [record_trace:false]: the per-round
     envelope lists are then dropped as soon as the round ends instead
     of being retained for the whole run, and the tally below is the
     only thing kept. *)
  let trace = ref [] in
  Sb_obs.Metrics.incr m_runs;
  let metrics_run = Sb_obs.Metrics.enabled () in
  (* Every traffic figure of the run — p2p_messages, comm and the sim.*
     traffic counters — reads this one tally.
     Bodies are sized only when a byte figure is reported. *)
  let tally = Trace.tally ~bytes:(record_comm || metrics_run) in
  let deliveries = ref 0 in
  (* Causal tracing (Trace_ctx): off by default, one boolean load here.
     When enabled, this run becomes one session span tree — session ->
     round -> {collect/rush/intercept/route} phases -> party — plus a
     flow edge per delivered envelope from the span that sent it into
     the round span that delivers it. Like metrics, none of this
     touches the split RNG streams. *)
  let tracing = Sb_obs.Trace_ctx.enabled () in
  let s_session =
    if tracing then
      Sb_obs.Trace_ctx.begin_session protocol.name
        ~args:
          [
            ("protocol", protocol.name);
            ("n", string_of_int n);
            ("thresh", string_of_int ctx.thresh);
            ("corrupted", string_of_int (List.length corrupted));
          ]
    else Sb_obs.Trace_ctx.none
  in
  let party_span =
    if tracing then Array.make n Sb_obs.Trace_ctx.none else [||]
  in
  (* What the kernel steps: under tracing, each party's step is wrapped
     once per run in its party span. *)
  let stepped =
    if not tracing then parties
    else
      List.map
        (fun (id, (party : Party.t)) ->
          let step ~round ~inbox =
            let sp =
              Sb_obs.Trace_ctx.begin_span ~agg:"party" ~cat:"party"
                ~args:[ ("id", string_of_int id) ]
                (Printf.sprintf "P%d" id)
            in
            party_span.(id) <- sp;
            let out = party.step ~round ~inbox in
            Sb_obs.Trace_ctx.end_span sp;
            out
          in
          (id, { party with step }))
        parties
  in
  (* Sender spans of envelopes routed into the next round; when that
     round's span opens these become its incoming flow edges. *)
  let pending : Sb_obs.Trace_ctx.h list ref = ref [] in
  for round = 0 to total_rounds do
    (* Under reuse, flip the context arena: the side flipped onto last
       held round r-2's allocations, delivered and consumed at r-1 —
       dead by now, so its records are recycled for this round. *)
    if reuse_envelopes then
      (match ctx.pool with Some a -> Envelope.Arena.flip a | None -> ());
    let metrics_on = Sb_obs.Metrics.enabled () in
    let t0 = if metrics_on then Sb_obs.Metrics.now_s () else 0.0 in
    let last = round = total_rounds in
    let s_round =
      if tracing then begin
        let s =
          Sb_obs.Trace_ctx.begin_span ~agg:"round" ~cat:"round"
            ~args:[ ("round", string_of_int round) ]
            (Printf.sprintf "round %d" round)
        in
        List.iter (fun src -> Sb_obs.Trace_ctx.flow ~src ~dst:s) !pending;
        pending := [];
        s
      end
      else Sb_obs.Trace_ctx.none
    in
    (* 1. Collect: honest parties step on their mailboxes. *)
    let s_collect =
      if tracing then Sb_obs.Trace_ctx.begin_span ~agg:"collect" ~cat:"phase" "collect"
      else Sb_obs.Trace_ctx.none
    in
    let honest_out = Round.step kernel ~round stepped in
    Sb_obs.Trace_ctx.end_span s_collect;
    (* 2. Rush: the adversary sees same-round honest traffic — minus
       the ideal channel to the functionality — plus everything the
       router delivered to the corrupted set this round. *)
    let s_rush =
      if tracing then Sb_obs.Trace_ctx.begin_span ~agg:"rush" ~cat:"phase" "rush"
      else Sb_obs.Trace_ctx.none
    in
    let rushed = List.filter (fun e -> not (Envelope.is_func_bound e)) honest_out in
    let delivered = Router.delivered_to_any (Round.mailboxes kernel) corrupted in
    let adv_out_raw = strategy.Adversary.act { round; delivered; rushed } in
    (* Drop spoofed envelopes. *)
    let adv_out =
      List.filter
        (fun e ->
          match Envelope.src_party e with Some i -> is_corrupt.(i) | None -> false)
        adv_out_raw
    in
    Sb_obs.Trace_ctx.end_span s_rush;
    (* 3. Intercept: fault injection at the delivery queue. Crashed
       senders are silenced (even towards the functionality),
       lossy/partitioned links drop, delayed envelopes are re-injected
       in a later round. Everything above this point saw the traffic
       as sent; the interceptor always receives the full flattened
       queue, before any routing. *)
    let s_intercept =
      if tracing then
        Sb_obs.Trace_ctx.begin_span ~agg:"intercept" ~cat:"phase" "intercept"
      else Sb_obs.Trace_ctx.none
    in
    let all_out = if last then [] else honest_out @ adv_out in
    let all_out =
      match intercept with None -> all_out | Some f -> f ~round all_out
    in
    Sb_obs.Trace_ctx.end_span s_intercept;
    (* 4. Route: the functionality consumes Func-bound traffic of this
       round, then the queue — party traffic first, then the
       functionality's replies — is dispatched into the next round's
       mailboxes. *)
    let s_route =
      if tracing then Sb_obs.Trace_ctx.begin_span ~agg:"route" ~cat:"phase" "route"
      else Sb_obs.Trace_ctx.none
    in
    let func_in = List.filter Envelope.is_func_bound all_out in
    let func_out = functionality.Functionality.f_step ~round ~inbox:func_in in
    List.iter (fun e -> assert (Envelope.is_from_func e)) func_out;
    Log.debug (fun m ->
        m "%s round %d: honest=%d adv=%d func_in=%d func_out=%d%s" protocol.name round
          (List.length honest_out) (List.length adv_out) (List.length func_in)
          (List.length func_out)
          (if last then " (final)" else ""));
    (* 5. Record the round's traffic as sent — the final round's
       output is discarded, so it is not traffic — then queue
       next-round deliveries. *)
    if not last then begin
      let nh = Trace.add tally honest_out and na = Trace.add tally adv_out in
      if metrics_on then begin
        Sb_obs.Metrics.incr ~by:nh m_honest;
        Sb_obs.Metrics.incr ~by:na m_adv;
        Sb_obs.Metrics.incr ~by:(List.length func_out) m_func;
        Sb_obs.Metrics.incr ~by:(List.length adv_out_raw - na) m_forged
      end;
      if record_trace then
        trace :=
          { Trace.round; honest_sent = honest_out; adv_sent = adv_out; func_sent = func_out }
          :: !trace
    end;
    if metrics_on then begin
      Sb_obs.Metrics.incr m_rounds;
      Sb_obs.Metrics.observe h_round_us ((Sb_obs.Metrics.now_s () -. t0) *. 1e6)
    end;
    Round.route kernel all_out ~replies:func_out;
    if record_comm then deliveries := !deliveries + Router.total (Round.mailboxes kernel);
    Sb_obs.Trace_ctx.end_span s_route;
    if tracing && not last then begin
      (* One causal edge per delivered envelope: sender span -> next
         round's span. Honest senders resolve to their party span,
         corrupted senders to the rush phase (where the adversary
         spoke), functionality replies to the route phase (where the
         functionality stepped). *)
      let src_of e =
        match Envelope.src_party e with
        | Some i when not is_corrupt.(i) -> party_span.(i)
        | Some _ -> s_rush
        | None -> s_route
      in
      List.iter
        (fun e ->
          if not (Envelope.is_func_bound e) then pending := src_of e :: !pending)
        all_out;
      List.iter (fun _ -> pending := s_route :: !pending) func_out
    end;
    Sb_obs.Trace_ctx.end_span s_round
  done;
  if tracing then begin
    pending := [];
    Sb_obs.Trace_ctx.end_span s_session
  end;
  if metrics_run && Sb_obs.Metrics.enabled () then begin
    (* Add the run's traffic to the counters once per run, so the
       body-sizing decision taken at the start covers all of it. *)
    Sb_obs.Metrics.incr ~by:tally.Trace.broadcasts m_bcast;
    Sb_obs.Metrics.incr ~by:tally.Trace.p2p m_p2p;
    Sb_obs.Metrics.incr ~by:tally.Trace.broadcast_bytes m_bytes_bcast;
    Sb_obs.Metrics.incr ~by:tally.Trace.p2p_bytes m_bytes_p2p
  end;
  {
    outputs = List.map (fun (id, party) -> (id, party.Party.output ())) parties;
    adv_output = strategy.Adversary.adv_output ();
    corrupted;
    rounds_used = total_rounds;
    p2p_messages = tally.Trace.p2p;
    trace = List.rev !trace;
    comm =
      (if record_comm then
         Some
           {
             broadcasts = tally.Trace.broadcasts;
             broadcast_bytes = tally.Trace.broadcast_bytes;
             p2p_bytes = tally.Trace.p2p_bytes;
             deliveries = !deliveries;
           }
       else None);
  }

let honest_run ?record_trace ?record_comm ?reuse_envelopes ctx ~rng ~protocol ~inputs =
  run ctx ~rng ~protocol ~adversary:(Adversary.passive protocol) ~inputs ?record_trace
    ?record_comm ?reuse_envelopes ()
