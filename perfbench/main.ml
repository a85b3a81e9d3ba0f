(* The benchmark executable; perfbench/run.py builds and drives it.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--t0-ns T]
            [--setup-only] [--determinism] [--spans FILE]

   Untraced (--trace 0): set up, then run whole passes of the workload
   until S seconds have gone, and print the end-to-end metrics.
   Traced (--trace 1): run one pass untraced to take the counts, then
   the same pass (same seed) traced and untraced, and print the
   per-layer metrics; the ratio of the last two walls is the tracing
   overhead. --determinism runs one untraced pass
   and adds the exact counts to the output, for run.py to compare.
   --setup-only stops after set-up and prints setup_s alone.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

type workload =
  | W : {
      name : string;
      setup : seed:int -> 's;
      pass : 's -> Obs.t -> traced:bool -> drive:bool -> seed:int -> unit;
      pass_s : float;  (** one pass's wall on the reference host *)
      layers : 's -> (string * float) list;
      exact : 's -> (string * int) list;
      sessions : 's -> int;
          (** sessions of the traced pass the party metrics are per *)
    }
      -> workload

let adv_inits _ = Spans.count Wrap.k_adv_init

let workloads =
  [
    W
      {
        name = "claims-n5";
        setup = Claims.setup;
        pass = Claims.pass;
        pass_s = 12.0;
        layers = Claims.layers;
        exact = (fun st -> Layers.sim_exact st.Claims.sim);
        sessions = adv_inits;
      };
    W
      {
        name = "apps-mix";
        setup = Apps.setup;
        pass = Apps.pass;
        pass_s = 2.0;
        layers = Apps.layers;
        exact = (fun st -> Layers.sim_exact st.Apps.sim);
        sessions = adv_inits;
      };
    W
      {
        name = "single-large-n";
        setup = Large_n.setup;
        pass = Large_n.pass;
        pass_s = 5.0;
        layers = Large_n.layers;
        exact = (fun st -> Layers.sim_exact st.Large_n.sim);
        sessions = adv_inits;
      };
    W
      {
        name = "check-n5";
        setup = Check_n5.setup;
        pass = Check_n5.pass;
        pass_s = 16.0;
        layers = Check_n5.layers;
        exact = (fun st -> Layers.sim_exact st.Check_n5.sim);
        sessions = (fun st -> st.Check_n5.explored + st.Check_n5.replays);
      };
  ]

let end_to_end =
  [
    ("setup_s", "s"); ("samples_per_s", "1/s"); ("sessions_per_s", "1/s");
    ("session_p50_ms", "ms"); ("session_p99_ms", "ms"); ("deliveries_per_s", "1/s");
    ("states_per_s", "1/s"); ("alloc_words_per_op", "words"); ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric BENCHMARK.json lists; a layer a workload does
   not exercise reads 0. *)
let per_layer =
  let step f = ("party.step_self_us_per_session." ^ f, "us") in
  [
    ("core.fresh_ctx_us", "us"); ("core.fresh_ctx_per_session", "count");
    ("core.tester_self_us_per_sample", "us"); ("dist.sample_us", "us");
    ("sim.self_us_per_session", "us"); ("sim.self_ns_per_delivery", "ns");
    ("sim.rounds_per_session", "count"); ("sim.p2p_per_session", "count");
    ("sim.deliveries_per_session", "count"); ("sim.bytes_per_session", "bytes");
    ("sim.minor_words_per_session", "words");
    step "vss"; step "ideal"; step "bgw"; step "substrate"; step "commit";
    ("party.make_us_per_session", "us"); ("party.output_us_per_session", "us");
    ("party.steps_per_session", "count"); ("adversary.act_self_us_per_session", "us");
    ("functionality.step_us_per_session", "us");
    ("crypto.pow_ns", "ns"); ("crypto.pow_gh_ns", "ns"); ("crypto.commit_ns", "ns");
    ("crypto.commit_verify_ns", "ns"); ("crypto.sig_sign_ns", "ns"); ("crypto.sig_verify_ns", "ns");
    ("crypto.verify_share_n5_ns", "ns"); ("crypto.reconstruct_n5_ns", "ns");
    ("fault.intercept_us_per_session", "us"); ("fault.dropped_share", "ratio");
    ("session.engine_us_per_session", "us"); ("session.shards", "count");
    ("session.claims", "count"); ("session.heavy_p50_ms", "ms"); ("workload.gen_s", "s");
    ("check.explored", "count"); ("check.memo_hits", "count"); ("check.memo_hit_ratio", "ratio");
    ("check.terminals", "count"); ("check.us_per_state", "us"); ("check.witness_replay_ms", "ms");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.promoted_words_per_op", "words"); ("trace.overhead_ratio", "ratio");
  ]

let units name = List.assoc name (end_to_end @ per_layer)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--t0-ns T] [--setup-only] \
     [--determinism] [--spans FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (W w) -> w.name) workloads));
  exit 2

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed ?(extra = "") metrics =
  let ms =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) (units name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}%s}\n%!"
    correct attempted failed (String.concat ", " ms) extra

let () =
  let start = Meas.now_ns () in
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let t0 = ref start and setup_only = ref false and determinism = ref false in
  let spans_file = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--t0-ns" :: v :: rest -> t0 := int_of_string v; parse rest
    | "--spans" :: v :: rest -> spans_file := v; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--determinism" :: rest -> determinism := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let (W w) =
    match List.find_opt (fun (W w) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  (* One worker: the testers draw samples on the default pool. *)
  Sb_par.Pool.set_default_domains 1;
  let st = w.setup ~seed:!seed in
  let setup_raw = float_of_int (Meas.now_ns () - !t0) /. 1e9 in
  let setup_s =
    let cal = Obs.create () in
    ignore (Obs.calibrate cal);
    setup_raw /. Obs.slowdown cal
  in
  if !setup_only then begin
    print_result ~correct:true ~attempted:1 ~failed:0 [ ("setup_s", setup_s) ];
    exit 0
  end;
  let obs = Obs.create () in
  let timed_pass ~traced ~drive =
    Gc.full_major ();
    let g0 = Meas.gc_mark () and t = Meas.now_ns () in
    ignore (Obs.calibrate obs);
    w.pass st obs ~traced ~drive ~seed:!seed;
    (Meas.secs_since t, Meas.gc_delta g0 (Meas.gc_mark ()))
  in
  if !trace = 0 then begin
    Obs.within := not !determinism;
    let g0 = Meas.gc_mark () and t = Meas.now_ns () in
    (* Whole passes of the same inputs, so every run weighs the
       workload's cases alike: as many as fit in S seconds on the
       reference host, at least one. *)
    let passes = if !determinism then 1 else max 1 (int_of_float ((!seconds /. w.pass_s) +. 0.5)) in
    for p = 1 to passes do
      let p0 = Meas.now_ns () in
      Gc.full_major ();
      ignore (Obs.calibrate obs);
      w.pass st obs ~traced:false ~drive:!determinism ~seed:!seed;
      Printf.printf "%s: pass %d of %d took %.3fs\n%!" w.name p passes (Meas.secs_since p0)
    done;
    let gc = Meas.gc_delta g0 (Meas.gc_mark ()) in
    let alloc = (gc.Meas.minor -. obs.Obs.calib_words) /. float_of_int (max 1 obs.Obs.ops) in
    Printf.printf "%s: %d passes in %.2fs, %d attempted, %d failed, host slowdown %.3f\n" w.name
      passes (Meas.secs_since t) obs.Obs.attempted obs.Obs.failed (Obs.slowdown obs);
    let extra =
      if not !determinism then ""
      else
        let exact =
          obs.Obs.exact @ w.exact st
          @ [ ("alloc_words", int_of_float (gc.Meas.minor -. obs.Obs.calib_words)); ("ops", obs.Obs.ops) ]
        in
        Printf.sprintf ", \"exact\": {%s}"
          (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) (List.sort compare exact)))
    in
    print_result ~extra ~correct:(obs.Obs.failed = 0) ~attempted:obs.Obs.attempted
      ~failed:obs.Obs.failed
      ((("setup_s", setup_s) :: Obs.metrics obs)
      @ [ ("alloc_words_per_op", alloc); ("peak_rss_mb", Meas.peak_rss_mb () -. Calib.table_mb) ])
  end
  else begin
    (* Three passes of the same work. The first, untraced, takes the
       counts (traffic tallies on) and the GC figures; the second is
       traced; the third repeats it untraced, and the tracing overhead
       is the ratio of the last two walls. *)
    let _, gc = timed_pass ~traced:false ~drive:true in
    let ops = obs.Obs.ops in
    Layers.counting := false;
    Spans.reset ();
    Spans.enabled := true;
    let traced_s, _ = timed_pass ~traced:true ~drive:true in
    Spans.enabled := false;
    let untraced_s, _ = timed_pass ~traced:false ~drive:true in
    let sum_error = Spans.self_sum_error_ns () in
    if sum_error <> 0 then
      Obs.fail obs 1 (Printf.sprintf "span self times miss the root wall by %d ns" sum_error);
    let crypto = Crypto_probe.run () in
    let computed =
      Layers.closure_metrics ~sessions:(w.sessions st)
      @ w.layers st @ crypto
      @ [
          ("gc.minor_collections", float_of_int gc.Meas.minor_gcs);
          ("gc.major_collections", float_of_int gc.Meas.major_gcs);
          ("gc.promoted_words_per_op", gc.Meas.promoted /. float_of_int (max 1 ops));
          ("trace.overhead_ratio", traced_s /. untraced_s);
        ]
    in
    let path = if !spans_file <> "" then !spans_file else Printf.sprintf "spans-%s-%d.jsonl" w.name !seed in
    Spans.write path;
    Printf.printf "%s: untraced pass %.2fs, traced pass %.2fs, %d spans (written to %s)\n" w.name
      untraced_s traced_s (Spans.spans ()) path;
    print_result ~correct:(obs.Obs.failed = 0) ~attempted:obs.Obs.attempted ~failed:obs.Obs.failed
      (List.map
         (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name computed)))
         per_layer)
  end
