(* apps-mix: the election, auction and lottery application workloads
   at the full tier, through Sb_workload.Workload.run with the default
   work-stealing scheduler on a one-domain pool.

   The engine builds one context per shard, not per session, so
   Setup.fresh_ctx and the tester statistics are nearly idle here.
   Most of the work is cheap n = 5 Bracha round loops, the sb_session
   engine and the lottery's 5% drop-fault interceptor, and the
   heavy-tailed mix (a few large-committee sessions among thousands of
   small ones) gives a real per-session latency distribution. *)

open Sb_util
open Sb_sim
module Engine = Sb_session.Engine
module Workload = Sb_workload.Workload

let k_run = Spans.kind "workload.run"
let k_ctx = Spans.kind "core.fresh_ctx"
let k_sim = Spans.kind "sim.run"
let k_drive = Spans.kind "drive"
let k_pass = Spans.kind "pass"

type state = {
  pool : Sb_par.Pool.t;
  sim : Layers.sim;
  mutable engine_s : float;  (** pooled-section wall minus session walls *)
  mutable gen_s : float;  (** Workload.run wall minus the pooled section *)
  mutable runs : int;
  mutable sessions : int;
  mutable shards : int;
  mutable claims : int;
  heavy : Meas.Floats.t;  (** walls of sessions with n >= 16 *)
  mutable fault_in : int;
  mutable fault_out : int;
}

let setup ~seed:_ =
  let pool = Sb_par.Pool.create ~domains:1 () in
  (* Warm-up: one quick-tier lottery builds the protocols, the fault
     compiler and the shard contexts once before anything is timed. *)
  (match Workload.run ~pool ~quick:true ~seed:1 "lottery" with
  | Ok _ -> ()
  | Error e -> failwith e);
  {
    pool;
    sim = Layers.sim_create ();
    engine_s = 0.0;
    gen_s = 0.0;
    runs = 0;
    sessions = 0;
    shards = 0;
    claims = 0;
    heavy = Meas.Floats.create ();
    fault_in = 0;
    fault_out = 0;
  }

let summary_int (o : Workload.outcome) key =
  match List.assoc_opt key o.Workload.summary with Some (Sb_obs.Json.Int v) -> v | _ -> -1

let summary_bool (o : Workload.outcome) key =
  match List.assoc_opt key o.Workload.summary with Some (Sb_obs.Json.Bool b) -> b | _ -> false

let scale (o : Workload.outcome) key = Option.value ~default:(-1) (List.assoc_opt key o.Workload.scale)

(* Sessions of a spec that carries a fault plan may lose consistency;
   every other session must stay consistent. *)
let faulty_slice (o : Workload.outcome) =
  let b = Engine.bounds o.Workload.specs in
  fun i -> (List.nth o.Workload.specs (Engine.spec_at b i)).Engine.faults <> None

(* The application invariants each summary must keep. *)
let invariant_ok (o : Workload.outcome) =
  let reports = o.Workload.reports in
  let in_slice = faulty_slice o in
  let void_in_slice = ref 0 in
  Array.iter
    (fun (r : Engine.session_report) ->
      if (not r.Engine.consistent) && in_slice r.Engine.index then incr void_in_slice)
    reports;
  match o.Workload.name with
  | "election" ->
      summary_int o "yes" + summary_int o "no" = scale o "voters" && summary_bool o "certified"
  | "auction" -> summary_int o "sold" + summary_int o "no_sale" = scale o "lots"
  | "lottery" ->
      summary_int o "void" = !void_in_slice
      && summary_int o "heads" + summary_int o "tails" + summary_int o "void" = scale o "draws"
  | _ -> false

let family_of (p : Protocol.t) =
  let name = p.Protocol.name in
  if String.length name > 11 && String.sub name 0 11 = "concurrent-" then Wrap.Substrate
  else if name = "commit-open" then Wrap.Commit
  else Wrap.Vss

(* Replays every session of an outcome through the public sequence:
   one Setup.fresh_ctx per shard, then Network.run on the session's
   recorded inputs, with the spec's fault plan compiled by
   Sb_fault.Inject. Fault-free sessions must announce what the engine
   reported. *)
let replay st (obs : Obs.t) ~traced ~seed (o : Workload.outcome) =
  let specs = Array.of_list o.Workload.specs in
  let b = Engine.bounds o.Workload.specs in
  let protocols =
    Array.map
      (fun (s : Engine.spec) ->
        let p = s.Engine.protocol in
        if traced then Wrap.protocol (family_of p) p else p)
      specs
  in
  let faults =
    Array.mapi
      (fun k (s : Engine.spec) ->
        Option.map
          (fun plan ->
            let n = o.Workload.reports.(b.(k)).Engine.n in
            let make = Sb_fault.Inject.compile ~n plan in
            let counted ~rng =
              let intercept = make ~rng in
              fun ~round envs ->
                let out = intercept ~round envs in
                if !Layers.counting then begin
                  st.fault_in <- st.fault_in + List.length envs;
                  st.fault_out <- st.fault_out + List.length out
                end;
                out
            in
            if traced then Wrap.faults counted else counted)
          s.Engine.faults)
      specs
  in
  let rng = Rng.create seed in
  let ctx = ref None and shard = ref (-1) in
  Array.iter
    (fun (r : Engine.session_report) ->
      let k = Engine.spec_at b r.Engine.index in
      let n = r.Engine.n in
      if r.Engine.shard <> !shard then begin
        shard := r.Engine.shard;
        let setup = { Core.Setup.default with Core.Setup.n; thresh = (n - 1) / 2 } in
        ctx := Some (Spans.span k_ctx (fun () -> Core.Setup.fresh_ctx setup (Rng.split rng)))
      end;
      Spans.new_session ();
      let protocol = protocols.(k) in
      let adversary = Core.Adversaries.passive in
      let adversary = if traced then Wrap.adversary adversary else adversary in
      let inputs = Array.init n (fun p -> Msg.Bit (Bitvec.get r.Engine.x p)) in
      let w0 = Meas.minor_words () in
      let res =
        Spans.span k_sim (fun () ->
            Network.run (Option.get !ctx) ~rng:(Rng.split rng) ~protocol ~adversary ~inputs
              ?faults:faults.(k) ~record_trace:false ~record_comm:!Layers.counting ())
      in
      Layers.sim_add st.sim res (Meas.minor_words () -. w0);
      if Option.is_none faults.(k) then begin
        let w, consistent =
          match List.map (fun (_, m) -> Core.Announced.to_vector n m) res.Network.outputs with
          | Some first :: rest ->
              (first, List.for_all (function Some v -> Bitvec.equal v first | None -> false) rest)
          | _ -> (Bitvec.zero n, false)
        in
        if not (consistent && Bitvec.equal w r.Engine.w) then
          Obs.fail obs 1
            (Printf.sprintf "%s session %d: replay announced %s, the engine %s" o.Workload.name
               r.Engine.index (Bitvec.to_string w) (Bitvec.to_string r.Engine.w))
      end)
    o.Workload.reports

let pass st (obs : Obs.t) ~traced ~drive ~seed =
  Spans.span k_pass (fun () ->
      List.iteri
        (fun ai name ->
          let wseed = Meas.derive seed [ ai ] in
          let t0 = Meas.now_ns () in
          let o =
            match Spans.span k_run (fun () -> Workload.run ~pool:st.pool ~seed:wseed name) with
            | Ok o -> o
            | Error e -> failwith e
          in
          let wall = Meas.secs_since t0 in
          let agg = o.Workload.aggregate in
          let reports = o.Workload.reports in
          let sessions = agg.Engine.sessions in
          let session_sum = Array.fold_left ( +. ) 0.0 agg.Engine.session_wall_s in
          let p2p = Array.fold_left (fun acc (r : Engine.session_report) -> acc + r.Engine.p2p) 0 reports in
          let rounds = Array.fold_left (fun acc (r : Engine.session_report) -> acc + r.Engine.rounds) 0 reports in
          Obs.add obs name ~executions:sessions ~inner_s:session_sum ~sessions ~outer_s:wall ~deliveries:p2p
            ~deliveries_s:wall ~states:rounds ~walls:agg.Engine.session_wall_s ();
          obs.Obs.ops <- obs.Obs.ops + sessions;
          obs.Obs.attempted <- obs.Obs.attempted + sessions;
          Obs.add_exact obs "apps.sessions" sessions;
          Obs.add_exact obs "apps.consistent" agg.Engine.consistent;
          Obs.add_exact obs "apps.p2p" p2p;
          Obs.add_exact obs "apps.rounds" rounds;
          let in_slice = faulty_slice o in
          Array.iter
            (fun (r : Engine.session_report) ->
              if not (r.Engine.consistent || in_slice r.Engine.index) then
                Obs.fail obs 1
                  (Printf.sprintf "%s session %d (%s) is inconsistent outside the fault-planned slice"
                     name r.Engine.index r.Engine.protocol))
            reports;
          if not (invariant_ok o) then Obs.fail obs sessions (name ^ ": summary breaks its invariant");
          if !Layers.counting then begin
            st.runs <- st.runs + 1;
            st.sessions <- st.sessions + sessions;
            st.engine_s <- st.engine_s +. (agg.Engine.wall_s -. session_sum);
            st.gen_s <- st.gen_s +. (wall -. agg.Engine.wall_s);
            st.shards <- st.shards + agg.Engine.shards;
            st.claims <-
              st.claims
              + Array.fold_left (fun acc (w : Engine.worker_stat) -> acc + w.Engine.shards_run) 0
                  agg.Engine.worker_stats;
            Array.iteri
              (fun i (r : Engine.session_report) ->
                if r.Engine.n >= 16 then Meas.Floats.add st.heavy agg.Engine.session_wall_s.(i))
              reports
          end;
          if drive then Spans.span k_drive (fun () -> replay st obs ~traced ~seed:(Meas.derive wseed [ 1 ]) o);
          ignore (Obs.calibrate obs))
        Workload.names)

let layers st =
  [
    ("core.fresh_ctx_us", Layers.ratio (Spans.total_s k_ctx *. 1e6) (Spans.count k_ctx));
    ("core.fresh_ctx_per_session", Layers.ratio (float_of_int (Spans.count k_ctx)) (Spans.count k_sim));
    ("session.engine_us_per_session", Layers.ratio (st.engine_s *. 1e6) st.sessions);
    ("session.shards", Layers.ratio (float_of_int st.shards) st.runs);
    ("session.claims", Layers.ratio (float_of_int st.claims) st.runs);
    ("session.heavy_p50_ms", Meas.percentile 0.5 (Meas.Floats.to_array st.heavy) *. 1e3);
    ("workload.gen_s", Layers.ratio st.gen_s st.runs);
    ( "fault.dropped_share",
      if st.fault_in = 0 then 0.0 else 1.0 -. (float_of_int st.fault_out /. float_of_int st.fault_in) );
  ]
  @ Layers.sim_metrics st.sim k_sim
