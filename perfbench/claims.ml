(* claims-n5: the paper's tester cells at n = 5, t = 2, Hash backend,
   each with the verdict the paper predicts (experiments E4 and E5).

   Every Monte-Carlo sample builds a fresh context and runs one small
   Network.run with VSS crypto or BGW inside the party steps, so this
   is the only workload where Setup.fresh_ctx, the tester statistics
   and sb_mpc do real work. G cells keep E4's floor of 2000 samples
   per honest bucket (2^(n-2) buckets), below which verdicts flip with
   the seed. G** over BGW Theta is left out: it alone costs more than
   a whole pass of the other cells. *)

open Sb_util
open Sb_sim
module V = Sb_stats.Verdict

let n = 5
let corrupt = [ 3; 4 ]
let budget = 2000
let g_budget = 2000 * (1 lsl (n - 2))

(* G** compares input pairs point by point; at 2000 runs per point its
   verdict on Pi_G came out Inconclusive for 12 of 40 seeds, at 4000
   and 8000 for none. *)
let gss_budget = 8000

(* Samples per cell driven through the public per-sample sequence in
   traced and determinism runs. *)
let drive_samples = 200



type tester = Cr | G | Gss | Sbt

type cell = {
  label : string;
  tester : tester;
  protocol : Protocol.t;
  adversary : Protocol.t -> Adversary.t;
  family : Wrap.family;
  samples : int;
  expect : V.t;
  mutable deliveries_per_exec : float;
  mutable rounds_per_exec : int;
}

let tester_name = function Cr -> "cr" | G -> "g" | Gss -> "gss" | Sbt -> "sb"
let k_tester = List.map (fun t -> (t, Spans.kind ("tester." ^ tester_name t))) [ Cr; G; Gss; Sbt ]
let k_ctx = Spans.kind "core.fresh_ctx"
let k_dist = Spans.kind "dist.sample"
let k_sim = Spans.kind "sim.run"
let k_vec = Spans.kind "announced.to_vector"
let k_drive = Spans.kind "drive"
let k_pass = Spans.kind "pass"

let cells () =
  let semi p = Core.Adversaries.semi_honest p ~corrupt in
  let vss =
    List.concat_map
      (fun (p : Protocol.t) ->
        [
          { label = p.Protocol.name ^ "/cr"; tester = Cr; protocol = p; adversary = semi; family = Wrap.Vss;
            samples = budget; expect = V.Pass; deliveries_per_exec = 0.0; rounds_per_exec = 0 };
          { label = p.Protocol.name ^ "/g"; tester = G; protocol = p; adversary = semi; family = Wrap.Vss;
            samples = g_budget; expect = V.Pass; deliveries_per_exec = 0.0; rounds_per_exec = 0 };
        ])
      [ Sb_protocols.Cgma.protocol; Sb_protocols.Chor_rabin.protocol; Sb_protocols.Gennaro.protocol ]
  in
  let astar _ = Core.Adversaries.a_star ~corrupt:(3, 4) in
  let ideal tester samples expect =
    { label = "pi-g-ideal/" ^ tester_name tester; tester; protocol = Sb_protocols.Pi_g.protocol;
      adversary = astar; family = Wrap.Ideal; samples; expect; deliveries_per_exec = 0.0;
      rounds_per_exec = 0 }
  in
  let real = Sb_protocols.Theta_real.protocol ~n in
  let astar_real _ = Sb_protocols.Theta_real.a_star_real ~n ~corrupt:(3, 4) in
  let bgw tester =
    { label = "pi-g-bgw/" ^ tester_name tester; tester; protocol = real; adversary = astar_real;
      family = Wrap.Bgw; samples = budget; expect = V.Fail; deliveries_per_exec = 0.0;
      rounds_per_exec = 0 }
  in
  vss
  @ [ ideal G g_budget V.Pass; ideal Gss gss_budget V.Pass; ideal Cr budget V.Fail; ideal Sbt budget V.Fail ]
  @ [ bgw Cr; bgw Sbt ]

let setup_for cell seed = { Core.Setup.default with Core.Setup.samples = cell.samples; seed }
let dist = Sb_dist.Dist.uniform n

(* One execution of a cell through the public per-sample sequence, the
   one Announced.run_once performs inside the testers. *)
let drive_one (setup : Core.Setup.t) ~protocol ~adversary rng =
  let x = Spans.span k_dist (fun () -> Sb_dist.Dist.sample dist (Rng.split rng)) in
  let erng = Rng.split rng in
  let ctx = Spans.span k_ctx (fun () -> Core.Setup.fresh_ctx setup (Rng.split erng)) in
  let inputs = Array.init n (fun i -> Msg.Bit (Bitvec.get x i)) in
  let r =
    Spans.span k_sim (fun () ->
        Network.run ctx ~rng:erng ~protocol ~adversary ~inputs ~record_trace:false
          ~record_comm:!Layers.counting ())
  in
  let vectors =
    Spans.span k_vec (fun () ->
        List.map (fun (_, m) -> Core.Announced.to_vector n m) r.Network.outputs)
  in
  let consistent =
    match vectors with
    | Some first :: rest -> List.for_all (function Some v -> Bitvec.equal v first | None -> false) rest
    | _ -> false
  in
  (r, consistent)

type state = {
  cells : cell list;
  sim : Layers.sim;
  mutable stats_ns : float;  (** tester statistics time in the traced pass *)
  mutable traced_execs : int;  (** tester executions in the traced pass *)
}

(* Set-up: build every cell's protocol and adversary (the BGW circuit
   included), warm the crypto tables, and record each cell's
   deliveries and rounds per execution from one counted run. *)
let setup ~seed:_ =
  let cells = cells () in
  List.iter
    (fun c ->
      let s = setup_for c 1 in
      let rng = Rng.create 7 in
      let r, _ = drive_one s ~protocol:c.protocol ~adversary:(c.adversary c.protocol) rng in
      c.deliveries_per_exec <- float_of_int (Option.get r.Network.comm).Network.deliveries;
      c.rounds_per_exec <- r.Network.rounds_used)
    cells;
  { cells; sim = Layers.sim_create (); stats_ns = 0.0; traced_execs = 0 }

let run_tester cell setup ~protocol ~adversary =
  match cell.tester with
  | Cr ->
      let r = Core.Cr_test.run setup ~protocol ~adversary ~dist () in
      (r.Core.Cr_test.verdict, r.Core.Cr_test.inconsistent_runs)
  | G -> ((Core.G_test.run setup ~protocol ~adversary ~dist ()).Core.G_test.verdict, 0)
  | Gss -> ((Core.Gss_test.run setup ~protocol ~adversary ()).Core.Gss_test.verdict, 0)
  | Sbt -> ((Core.Sb_test.run setup ~protocol ~adversary ~dist ()).Core.Sb_test.verdict, 0)

(* Records the start of every execution: Network.run calls the
   adversary's init exactly once per execution, so the gaps between
   consecutive calls are the per-sample latencies. Every
   [calib_every] executions it also runs a calibration point, whose
   wall [offset] keeps out of the stamps. *)
let calib_every = 2000

let stamped obs (a : Adversary.t) stamps offset =
  {
    a with
    Adversary.init =
      (fun ctx ~rng ~corrupted ~inputs ~aux ->
        if !Obs.within && stamps.Meas.Floats.len > 0 && stamps.Meas.Floats.len mod calib_every = 0 then
          offset := !offset +. Obs.calibrate ~chunks:1 obs;
        Meas.Floats.add stamps (float_of_int (Meas.now_ns ()) -. (!offset *. 1e9));
        Spans.new_session ();
        a.Adversary.init ctx ~rng ~corrupted ~inputs ~aux);
  }

let pass st (obs : Obs.t) ~traced ~drive ~seed =
  Spans.span k_pass (fun () ->
      List.iteri
        (fun ci cell ->
          let cseed = Meas.derive seed [ ci ] in
          let setup = setup_for cell cseed in
          let protocol = if traced then Wrap.protocol cell.family cell.protocol else cell.protocol in
          let adversary = cell.adversary protocol in
          let adversary = if traced then Wrap.adversary adversary else adversary in
          let stamps = Meas.Floats.create () and offset = ref 0.0 and from = Obs.points obs in
          let tester = List.assoc cell.tester k_tester in
          let tester_self0 = tester.Spans.self_ns in
          let t0 = Meas.now_ns () in
          let verdict, inconsistent =
            Spans.span tester (fun () ->
                run_tester cell setup ~protocol ~adversary:(stamped obs adversary stamps offset))
          in
          let wall = Meas.secs_since t0 -. !offset in
          let stamps = Meas.Floats.to_array stamps in
          let execs = Array.length stamps in
          Obs.add obs cell.label ~from ~executions:(max 0 (execs - 1))
            ~inner_s:(if execs > 1 then (stamps.(execs - 1) -. stamps.(0)) /. 1e9 else 0.0)
            ~sessions:execs ~outer_s:wall
            ~deliveries:(int_of_float (float_of_int execs *. cell.deliveries_per_exec))
            ~deliveries_s:wall ~states:(execs * cell.rounds_per_exec)
            ~walls:(Obs.gaps stamps) ();
          obs.Obs.ops <- obs.Obs.ops + execs;
          obs.Obs.attempted <- obs.Obs.attempted + execs;
          if !Spans.enabled then st.traced_execs <- st.traced_execs + execs;
          Obs.add_exact obs "claims.executions" execs;
          if not (V.equal verdict cell.expect) then
            Obs.fail obs execs
              (Printf.sprintf "%s: verdict %s, the paper predicts %s" cell.label (V.to_string verdict)
                 (V.to_string cell.expect));
          Obs.fail obs inconsistent (Printf.sprintf "%s: %d inconsistent samples" cell.label inconsistent);
          if drive then begin
            let path () = List.fold_left (fun acc k -> acc + k.Spans.self_ns) 0 [ k_ctx; k_dist; k_sim; k_vec ] in
            let path0 = path () in
            Spans.span k_drive (fun () ->
                let rng = Rng.create (Meas.derive cseed [ 1 ]) in
                for _ = 1 to drive_samples do
                  Spans.new_session ();
                  let w0 = Meas.minor_words () in
                  let r, consistent = drive_one setup ~protocol ~adversary (Rng.split rng) in
                  Layers.sim_add st.sim r (Meas.minor_words () -. w0);
                  if not consistent then Obs.fail obs 1 (cell.label ^ ": inconsistent driven sample")
                done);
            (* The tester's self time, less what the same cell's driven
               samples spent per sample on context, inputs, round
               engine and decoding, leaves the tester's statistics. *)
            if !Spans.enabled then
              st.stats_ns <-
                st.stats_ns
                +. float_of_int (tester.Spans.self_ns - tester_self0)
                -. (float_of_int execs *. float_of_int (path () - path0) /. float_of_int drive_samples)
          end;
          ignore (Obs.calibrate obs))
        st.cells)

(* Per-layer numbers of a traced pass, on top of the shared ones. *)
let layers st =
  let per k = Layers.ratio (Spans.total_s k *. 1e6) (Spans.count k) in
  [
    ("core.fresh_ctx_us", per k_ctx);
    ("core.fresh_ctx_per_session", Layers.ratio (float_of_int (Spans.count k_ctx)) (Spans.count k_sim));
    ("core.tester_self_us_per_sample", Layers.ratio (st.stats_ns /. 1e3) st.traced_execs);
    ("dist.sample_us", per k_dist);
  ]
  @ Layers.sim_metrics st.sim k_sim
