(* Tests for sb_obs: metric semantics (including bucketed quantiles on
   known data), JSON emission/parsing, report shape, and the layer's
   one hard contract: instrumentation must not perturb seeded protocol
   runs. *)

open Sb_obs

(* Metrics state is process-global; every test that enables the
   layer funnels through this so a failure cannot leak enablement into
   a later test. *)
let with_obs f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

(* --- counters and gauges ------------------------------------------ *)

let test_counter_semantics () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter "t.counter" in
  Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 0 (Metrics.counter_value c);
  with_obs (fun () ->
      Metrics.incr c;
      Metrics.incr ~by:41 c;
      Alcotest.(check int) "enabled incr accumulates" 42 (Metrics.counter_value c);
      let c' = Metrics.counter "t.counter" in
      Metrics.incr c';
      Alcotest.(check int) "interned by name" 43 (Metrics.counter_value c));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)

let test_gauge_semantics () =
  with_obs (fun () ->
      let g = Metrics.gauge "t.gauge" in
      Metrics.set g 2.5;
      Metrics.set g 7.25;
      Alcotest.(check (float 0.0)) "last write wins" 7.25 (Metrics.gauge_value g))

(* --- histograms ---------------------------------------------------- *)

let test_histogram_quantiles () =
  with_obs (fun () ->
      (* Unit-width buckets 1..100; observing each integer once makes
         the interpolated quantiles exact. *)
      let buckets = Array.init 100 (fun i -> float_of_int (i + 1)) in
      let h = Metrics.histogram ~buckets "t.hist" in
      for v = 1 to 100 do
        Metrics.observe h (float_of_int v)
      done;
      let s = Metrics.stats h in
      Alcotest.(check int) "count" 100 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 5050.0 s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
      Alcotest.(check (float 1.0)) "p50" 50.0 s.Metrics.p50;
      Alcotest.(check (float 1.0)) "p95" 95.0 s.Metrics.p95)

let test_histogram_single_value () =
  with_obs (fun () ->
      let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "t.hist1" in
      for _ = 1 to 10 do
        Metrics.observe h 7.0
      done;
      let s = Metrics.stats h in
      (* Quantiles clamp to the observed range, so a constant stream
         reports the constant, not a bucket bound. *)
      Alcotest.(check (float 1e-9)) "p50 clamps to observed" 7.0 s.Metrics.p50;
      Alcotest.(check (float 1e-9)) "p95 clamps to observed" 7.0 s.Metrics.p95;
      Alcotest.(check (float 1e-9)) "mean" 7.0 s.Metrics.mean)

let test_histogram_overflow_bucket () =
  with_obs (fun () ->
      let h = Metrics.histogram ~buckets:[| 1.0; 2.0 |] "t.hist2" in
      Metrics.observe h 0.5;
      Metrics.observe h 1000.0;
      let s = Metrics.stats h in
      Alcotest.(check int) "overflow observed" 2 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "max tracked past last bound" 1000.0 s.Metrics.max)

let test_disabled_histogram_observes_nothing () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let h = Metrics.histogram ~buckets:[| 1.0 |] "t.hist3" in
  Metrics.observe h 0.5;
  Alcotest.(check int) "no count when disabled" 0 (Metrics.stats h).Metrics.count

let test_measure_counts_pool_workers () =
  (* Two tasks on a two-domain pool. Each waits until both have
     started, so one of them runs on the spawned worker; then each
     allocates [k] four-word blocks. OCaml 5's [Gc.counters] can lag a
     domain's allocation by up to one minor heap, so the bound allows
     one per domain; the words of the worker's task alone are far more
     than that. *)
  let k = 1_000_000 in
  let pool = Sb_par.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () ->
      let started = Atomic.make 0 in
      let task _ =
        Atomic.incr started;
        while Atomic.get started < 2 do
          Domain.cpu_relax ()
        done;
        for i = 1 to k do
          ignore (Sys.opaque_identity (Array.make 3 i))
        done
      in
      let (), cost =
        Metrics.measure (fun () -> ignore (Sb_par.Pool.map_chunks pool ~f:task [| 0; 1 |]))
      in
      let bound = (2 * 4 * k) - (2 * (Gc.get ()).Gc.minor_heap_size) in
      if cost.Metrics.minor_words < float_of_int bound then
        Alcotest.failf "measure saw %.0f minor words; the two tasks allocated %d"
          cost.Metrics.minor_words (2 * 4 * k))

let test_measure_exact_on_worker () =
  (* Like the test above, one of the two tasks runs on the spawned
     worker; each allocates [k] four-word blocks, well under one minor
     heap in all, so a counter that lags by up to a minor heap (OCaml
     5.1's [Gc.counters]) reads far low. [measure] must report the
     words within 1%. *)
  let k = 25_000 in
  let pool = Sb_par.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () ->
      let started = Atomic.make 0 in
      let task _ =
        Atomic.incr started;
        while Atomic.get started < 2 do
          Domain.cpu_relax ()
        done;
        for i = 1 to k do
          ignore (Sys.opaque_identity (Array.make 3 i))
        done
      in
      let (), cost =
        Metrics.measure (fun () -> ignore (Sb_par.Pool.map_chunks pool ~f:task [| 0; 1 |]))
      in
      let expected = float_of_int (2 * 4 * k) in
      if Float.abs (cost.Metrics.minor_words -. expected) > 0.01 *. expected then
        Alcotest.failf "measure saw %.0f minor words; the two tasks allocated %.0f"
          cost.Metrics.minor_words expected)

let test_histogram_first_registration_wins () =
  with_obs (fun () ->
      let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 3.0 |] "t.rereg" in
      Alcotest.(check bool) "other buckets return the first histogram" true
        (h == Metrics.histogram ~buckets:[| 5.0; 50.0 |] "t.rereg");
      Alcotest.(check bool) "default buckets return the first histogram" true
        (h == Metrics.histogram "t.rereg");
      Metrics.reset ();
      Alcotest.(check bool) "reset keeps the registration" true
        (h == Metrics.histogram ~buckets:[| 9.0 |] "t.rereg"))

(* --- json ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n\tz\\" ]);
        ("c", Json.Float 1.5);
        ("d", Json.Obj []);
        ("e", Json.List []);
        ("neg", Json.Int (-3));
        ("exp", Json.Float 1.25e-3);
      ]
  in
  let check_roundtrip label s =
    match Json.of_string s with
    | Ok v' -> Alcotest.(check bool) label true (v = v')
    | Error e -> Alcotest.fail e
  in
  check_roundtrip "compact roundtrip" (Json.to_string v);
  check_roundtrip "indented roundtrip" (Json.to_string ~indent:true v)

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_member_access () =
  match Json.of_string "{\"x\": {\"y\": [1, 2.5, \"s\"]}}" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      let y = Option.bind (Json.member "x" v) (Json.member "y") in
      let items = Option.bind y Json.to_list_opt |> Option.get in
      Alcotest.(check int) "int elem" 1 (Json.to_int_opt (List.nth items 0) |> Option.get);
      Alcotest.(check (float 1e-9)) "float elem" 2.5
        (Json.to_float_opt (List.nth items 1) |> Option.get);
      Alcotest.(check string) "str elem" "s" (Json.to_str_opt (List.nth items 2) |> Option.get)

(* --- report -------------------------------------------------------- *)

let test_report_shape () =
  with_obs (fun () ->
      Metrics.incr (Metrics.counter "t.report.counter");
      let e =
        {
          Report.id = "E1";
          title = "unit fixture";
          ok = true;
          rows_checked = 3;
          cost = { Metrics.wall_s = 0.5; minor_words = 1024.0; major_words = 8.0 };
          notes = [ "a note" ];
        }
      in
      let j = Report.make ~tool:"test" ~tag:"unit" ~experiments:[ e ] () in
      (match Report.validate j with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* The serialized form must parse back and still validate. *)
      match Json.of_string (Json.to_string ~indent:true j) with
      | Error msg -> Alcotest.fail msg
      | Ok j' ->
          (match Report.validate j' with
          | Ok () -> ()
          | Error msg -> Alcotest.fail ("reparsed: " ^ msg));
          Alcotest.(check (option string)) "tag survives" (Some "unit")
            (Option.bind (Json.member "tag" j') Json.to_str_opt);
          let exps = Option.bind (Json.member "experiments" j') Json.to_list_opt |> Option.get in
          Alcotest.(check int) "one experiment" 1 (List.length exps);
          Alcotest.(check (option string)) "id survives" (Some "E1")
            (Option.bind (Json.member "id" (List.hd exps)) Json.to_str_opt);
          let num field = Option.bind (Json.member field (List.hd exps)) Json.to_float_opt in
          Alcotest.(check (option (float 0.0))) "minor_words survives" (Some 1024.0)
            (num "minor_words");
          Alcotest.(check (option (float 0.0))) "major_words survives" (Some 8.0)
            (num "major_words");
          Alcotest.(check bool) "no spans block" true (Json.member "spans" j' = None))

(* Robustness: [Json.of_string] then [Report.validate] is total.
   Inputs are arbitrary bytes, arrays and objects nested tens of
   thousands deep, oversized numbers, mutated valid reports, and random
   trees over the report schema's own keys (so [validate] walks deep
   into wrongly typed blocks). *)
let report_keys =
  [
    "schema_version"; "tool"; "tag"; "utc"; "experiments"; "id"; "title"; "ok";
    "rows_checked"; "wall_clock_s"; "minor_words"; "major_words"; "notes"; "metrics";
    "counters"; "spans"; "comm"; "broadcasts"; "broadcast_bytes"; "parallel"; "jobs";
    "timings"; "name"; "ns_per_run"; "r_square"; "sessions"; "trace"; "check"; "workload";
    "tier"; "summary";
  ]

let gen_json_value =
  QCheck.Gen.(
    sized_size (0 -- 12)
    @@ fix (fun self size ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]);
                 map (fun f -> Json.Float f) float;
                 map (fun s -> Json.Str s) (oneof [ small_string; oneofl [ "pass"; "E1" ] ]);
               ]
           in
           if size <= 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map (fun l -> Json.List l) (list_size (0 -- 3) (self (size / 2))));
                 ( 3,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 5) (pair (oneofl report_keys) (self (size / 2)))) );
               ]))

let gen_json_text =
  QCheck.Gen.(
    let deep =
      map2
        (fun depth (opening, tail) ->
          String.concat "" (List.init depth (fun _ -> opening)) ^ tail)
        (0 -- 20_000)
        (oneofl [ ("[", ""); ("[", "1]"); ("{\"a\":", "null}"); ("{\"check\":", "") ])
    in
    let number =
      map2 (fun digits exp -> digits ^ exp)
        (string_size ~gen:(char_range '0' '9') (1 -- 400))
        (oneofl [ ""; "e999999"; ".5e-999999"; "e"; "-" ])
    in
    let valid =
      Json.to_string
        (Report.make ~tool:"fuzz" ~tag:"fuzz"
           ~check:(Json.Obj [ ("n", Json.Int 4); ("agreement", Json.Str "pass") ])
           ())
    in
    let mutated =
      map2
        (fun at c ->
          let b = Bytes.of_string valid in
          Bytes.set b (at mod Bytes.length b) c;
          Bytes.sub_string b 0 (Bytes.length b - (at mod 7)))
        nat char
    in
    frequency
      [
        (2, string ~gen:char); (1, deep); (1, number); (3, mutated);
        (3, map (fun v -> Json.to_string v) gen_json_value);
        ( 3,
          map
            (fun v ->
              Json.to_string (Json.Obj [ ("schema_version", Json.Int Report.schema_version); ("x", v) ]))
            gen_json_value );
      ])

let qcheck_json_report_total =
  QCheck.Test.make ~name:"json of_string + report validate total" ~count:500
    (QCheck.make ~print:(fun s -> String.escaped (String.sub s 0 (min 200 (String.length s)))) gen_json_text)
    (fun s ->
      match Json.of_string s with
      | Ok j -> ( match Report.validate j with Ok () | Error _ -> true)
      | Error _ -> true)

let test_report_validate_rejects () =
  let fixture =
    {
      Report.id = "E1";
      title = "unit fixture";
      ok = true;
      rows_checked = 1;
      cost = { Metrics.wall_s = 0.1; minor_words = 1.0; major_words = 0.0 };
      notes = [];
    }
  in
  let valid = Report.make ~experiments:[ fixture ] () in
  Alcotest.(check bool) "fixture validates" true (Report.validate valid = Ok ());
  (* The same report with one experiment field swapped for a string. *)
  let minor_words_as_string = function
    | Json.Obj e ->
        Json.Obj
          (List.map (fun (k, v) -> if k = "minor_words" then (k, Json.Str "many") else (k, v)) e)
    | other -> other
  in
  let words_not_a_number =
    match valid with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (function
               | "experiments", Json.List es ->
                   ("experiments", Json.List (List.map minor_words_as_string es))
               | kv -> kv)
             kvs)
    | other -> other
  in
  List.iter
    (fun (label, json) ->
      match Report.validate json with
      | Ok () -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("wrong schema_version", Json.Obj [ ("schema_version", Json.Int 999) ]);
      ("empty object", Json.Obj []);
      ("non-numeric minor_words", words_not_a_number);
    ]

(* --- the simulator under instrumentation --------------------------- *)

let fixture_protocol = Sb_protocols.Gennaro.protocol

let run_fixture ?record_trace () =
  let ctx = Sb_sim.Ctx.make ~rng:(Sb_util.Rng.create 2026) ~n:5 ~thresh:2 ~k:8 () in
  let inputs = Array.init 5 (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
  Sb_sim.Network.run ctx ~rng:(Sb_util.Rng.create 7) ~protocol:fixture_protocol
    ~adversary:(Core.Adversaries.semi_honest fixture_protocol ~corrupt:[ 3; 4 ])
    ~inputs ?record_trace ()

let render (r : Sb_sim.Network.result) =
  let outputs =
    List.map (fun (i, m) -> Printf.sprintf "%d=%s" i (Sb_sim.Msg.to_string m)) r.Sb_sim.Network.outputs
  in
  String.concat ";" outputs ^ "|" ^ Format.asprintf "%a" Sb_sim.Trace.pp r.Sb_sim.Network.trace

let test_instrumentation_is_inert () =
  (* The acceptance bar: a seeded run yields byte-identical outputs and
     trace with observability fully on (metrics + causal tracing) vs
     fully off. *)
  Metrics.set_enabled false;
  Trace_ctx.set_enabled false;
  let plain = render (run_fixture ()) in
  let observed =
    with_obs (fun () ->
        Trace_ctx.reset ();
        Trace_ctx.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Trace_ctx.set_enabled false)
          (fun () ->
            let r = render (run_fixture ()) in
            Alcotest.(check bool) "spans were recorded" true (Trace_ctx.spans () <> []);
            Alcotest.(check bool) "rounds were counted" true
              (Metrics.counter_value (Metrics.counter "sim.rounds") > 0);
            r))
  in
  Alcotest.(check string) "byte-identical outputs and trace" plain observed;
  let plain_again = render (run_fixture ()) in
  Alcotest.(check string) "still identical after disabling" plain plain_again

(* One traffic rule, every view: on each broadcast substrate and on a
   protocol that talks to its functionality, fault-free and under
   crash+drop+delay, the run's comm block and p2p count, the trace-side
   counts and the sim.* counters all describe the same traffic, and the
   envelope-recycling path reproduces the fault-free comm block. *)
let traffic_cases =
  Core.Resilience.substrates () @ [ ("pi-g", Sb_protocols.Pi_g.protocol) ]

let traffic_plans =
  [
    ("fault-free", []);
    ( "crash+drop+delay",
      Sb_fault.Plan.crash ~party:4 ~round:1
      :: Sb_fault.Plan.drop ~src:1 0.2
      :: [ Sb_fault.Plan.delay ~src:0 1 ] );
  ]

let run_traffic ?pool ?faults ~reuse_envelopes ~record_trace protocol =
  let n = 5 in
  let ctx = Sb_sim.Ctx.make ?pool ~rng:(Sb_util.Rng.create 4242) ~n ~thresh:1 ~k:8 () in
  let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
  Sb_sim.Network.run ctx ~rng:(Sb_util.Rng.create 11) ~protocol
    ~adversary:(Core.Adversaries.semi_honest protocol ~corrupt:[ 3 ])
    ~inputs ~record_trace ~record_comm:true ~reuse_envelopes ?faults ()

let comm_fields (c : Sb_sim.Network.comm) =
  Sb_sim.Network.[ c.broadcasts; c.broadcast_bytes; c.p2p_bytes; c.deliveries ]

let test_network_counters_match_trace () =
  List.iter
    (fun (name, protocol) ->
      List.iter
        (fun (plan_name, plan) ->
          let label what = Printf.sprintf "%s, %s: %s" name plan_name what in
          let faults = if plan = [] then None else Some (Sb_fault.Inject.compile ~n:5 plan) in
          let comm =
            with_obs (fun () ->
                let r = run_traffic ?faults ~reuse_envelopes:false ~record_trace:true protocol in
                let trace = r.Sb_sim.Network.trace in
                let comm = Option.get r.Sb_sim.Network.comm in
                let counter name = Metrics.counter_value (Metrics.counter name) in
                let per_round = Sb_sim.Trace.per_round_counts trace in
                let sum f = List.fold_left (fun acc t -> acc + f t) 0 per_round in
                let check what expected got = Alcotest.(check int) (label what) expected got in
                let bcast_bytes, p2p_bytes = Sb_sim.Trace.wire_bytes trace in
                check "comm broadcasts = trace" (Sb_sim.Trace.broadcast_count trace)
                  comm.Sb_sim.Network.broadcasts;
                check "p2p_messages = trace" (Sb_sim.Trace.p2p_message_count trace)
                  r.Sb_sim.Network.p2p_messages;
                check "comm broadcast bytes = trace" bcast_bytes comm.Sb_sim.Network.broadcast_bytes;
                check "comm p2p bytes = trace" p2p_bytes comm.Sb_sim.Network.p2p_bytes;
                check "sim.broadcasts" comm.Sb_sim.Network.broadcasts (counter "sim.broadcasts");
                check "sim.p2p" r.Sb_sim.Network.p2p_messages (counter "sim.p2p");
                check "sim.bytes.broadcast" comm.Sb_sim.Network.broadcast_bytes
                  (counter "sim.bytes.broadcast");
                check "sim.bytes.p2p" comm.Sb_sim.Network.p2p_bytes (counter "sim.bytes.p2p");
                check "sim.envelopes.honest" (sum (fun (h, _, _) -> h)) (counter "sim.envelopes.honest");
                check "sim.envelopes.adv" (sum (fun (_, a, _) -> a)) (counter "sim.envelopes.adv");
                check "sim.envelopes.func" (sum (fun (_, _, f) -> f)) (counter "sim.envelopes.func");
                check "sim.rounds = rounds_used + final delivery"
                  (r.Sb_sim.Network.rounds_used + 1) (counter "sim.rounds");
                Alcotest.(check bool) (label "traffic was sent") true
                  (sum (fun (h, a, _) -> h + a) > 0);
                comm)
          in
          if plan = [] then begin
            let arena =
              run_traffic ~pool:(Sb_sim.Envelope.Arena.create ()) ~reuse_envelopes:true
                ~record_trace:false protocol
            in
            Alcotest.(check (list int)) (label "arena path comm")
              (comm_fields comm)
              (comm_fields (Option.get arena.Sb_sim.Network.comm))
          end)
        traffic_plans)
    traffic_cases

let test_messages_from_agrees_with_per_round () =
  let r = run_fixture () in
  let trace = r.Sb_sim.Network.trace in
  let by_party = List.init 5 (Sb_sim.Trace.messages_from trace) in
  let total_party_sourced = List.fold_left ( + ) 0 by_party in
  let per_round = Sb_sim.Trace.per_round_counts trace in
  let honest_plus_adv =
    List.fold_left (fun acc (h, a, _) -> acc + h + a) 0 per_round
  in
  Alcotest.(check int) "per-party sums match per-round sums" honest_plus_adv total_party_sourced

(* --- the experiment registry --------------------------------------- *)

let test_registry_covers_all_and_finds () =
  Alcotest.(check (list string)) "canonical id list"
    [
      "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E10"; "E11"; "E12"; "E13"; "E14";
      "E15"; "E16"; "E17";
    ]
    (Core.Experiments.ids ());
  (match Core.Experiments.find "e5" with
  | Some e -> Alcotest.(check string) "case-insensitive find" "E5" e.Core.Experiments.id
  | None -> Alcotest.fail "find e5");
  Alcotest.(check bool) "unknown id rejected" true (Core.Experiments.find "e9" = None)

let test_registry_runner_counters () =
  with_obs (fun () ->
      let e = Option.get (Core.Experiments.find "E6") in
      let setup = Core.Setup.with_samples 400 Core.Setup.quick in
      let o = e.Core.Experiments.run setup in
      Alcotest.(check bool) "outcome ok" true o.Core.Experiments.ok;
      Alcotest.(check int) "verdict rolled up" 1
        (Metrics.counter_value (Metrics.counter "exp.ok"));
      Alcotest.(check bool) "samples counted" true
        (Metrics.counter_value (Metrics.counter "exp.samples_drawn") > 0);
      Alcotest.(check int) "rows rolled up" o.Core.Experiments.rows_checked
        (Metrics.counter_value (Metrics.counter "exp.rows_checked")))

let () =
  Alcotest.run "sb_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram quantiles on known data" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram single value" `Quick test_histogram_single_value;
          Alcotest.test_case "histogram overflow bucket" `Quick test_histogram_overflow_bucket;
          Alcotest.test_case "disabled histogram" `Quick test_disabled_histogram_observes_nothing;
          Alcotest.test_case "histogram first registration wins" `Quick
            test_histogram_first_registration_wins;
          Alcotest.test_case "measure counts pool workers" `Quick test_measure_counts_pool_workers;
          Alcotest.test_case "measure exact on a worker domain" `Quick
            test_measure_exact_on_worker;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "member access" `Quick test_json_member_access;
        ] );
      ( "report",
        [
          Alcotest.test_case "shape and reparse" `Quick test_report_shape;
          Alcotest.test_case "validate rejects" `Quick test_report_validate_rejects;
          QCheck_alcotest.to_alcotest qcheck_json_report_total;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "instrumentation is inert" `Quick test_instrumentation_is_inert;
          Alcotest.test_case "counters match trace" `Quick test_network_counters_match_trace;
          Alcotest.test_case "messages_from vs per_round_counts" `Quick
            test_messages_from_agrees_with_per_round;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids and find" `Quick test_registry_covers_all_and_finds;
          Alcotest.test_case "runner instruments" `Quick test_registry_runner_counters;
        ] );
    ]
