(* Benchmark harness: regenerates every table of the reproduction
   (experiments E1-E16, one printed table per paper claim) and then
   times the protocol substrates with Bechamel (E9). Every invocation
   also times one fixed 20k-sample G-tester run ("gtester-smoke/20k" in
   the timings block — the scalar CI guards against regression) and
   Every invocation also runs the crypto hot-path probe (crypto.ml:
   "crypto/..." timing entries, one-line summary, crypto.csv under
   --csv) and ends by writing a machine-readable BENCH_<tag>.json run report
   (schema in EXPERIMENTS.md) — the perf trajectory artifact, which
   since schema v2 carries the comm block (message/byte totals).

   Usage:
     dune exec bench/main.exe            -- everything (default budget)
     dune exec bench/main.exe -- quick   -- reduced sample budget
     dune exec bench/main.exe -- e5      -- a single experiment
     dune exec bench/main.exe -- timing  -- only the Bechamel section
     dune exec bench/main.exe -- --csv=out/  -- also dump each table as CSV *)

let say fmt = Format.printf (fmt ^^ "@.")

(* --- E1..E14 tables (dispatched via the shared registry) ----------- *)

let csv_dir = ref None

let write_csv (o : Core.Experiments.outcome) =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (String.lowercase_ascii o.Core.Experiments.id ^ ".csv") in
      let oc = open_out path in
      output_string oc (Sb_util.Tabular.to_csv o.Core.Experiments.table);
      close_out oc;
      say "wrote %s" path

let print_outcome (o : Core.Experiments.outcome) =
  Sb_util.Tabular.print o.Core.Experiments.table;
  write_csv o;
  List.iter (fun n -> say "note: %s" n) o.Core.Experiments.notes;
  say "%s: paper-shape check %s (%d rows)@." o.Core.Experiments.id
    (if o.Core.Experiments.ok then "OK" else "MISMATCH")
    o.Core.Experiments.rows_checked

let run_experiments setup ids =
  let entries =
    if ids = [] then Core.Experiments.catalogue ()
    else
      List.filter_map
        (fun id ->
          match Core.Experiments.find id with
          | Some e -> Some e
          | None ->
              say "unknown experiment id: %s" id;
              None)
        ids
  in
  let outcomes =
    List.map
      (fun (e : Core.Experiments.entry) ->
        let o, cost = Sb_obs.Metrics.measure (fun () -> e.Core.Experiments.run setup) in
        print_outcome o;
        (o, cost))
      entries
  in
  let bad =
    List.filter (fun ((o : Core.Experiments.outcome), _) -> not o.Core.Experiments.ok) outcomes
  in
  say "== summary: %d/%d experiments match the paper's predictions =="
    (List.length outcomes - List.length bad)
    (List.length outcomes);
  List.iter
    (fun ((o : Core.Experiments.outcome), _) -> say "  MISMATCH: %s" o.Core.Experiments.id)
    bad;
  outcomes

(* --- E9: Bechamel timing ------------------------------------------- *)

open Bechamel

let protocol_bench name (protocol : Sb_sim.Protocol.t) ~n ~thresh =
  Test.make
    ~name:(Printf.sprintf "%s/n=%d" name n)
    (Staged.stage (fun () ->
         let rng = Sb_util.Rng.create 42 in
         let ctx = Sb_sim.Ctx.make ~rng ~n ~thresh ~k:16 () in
         let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
         ignore (Sb_sim.Network.honest_run ctx ~rng ~protocol ~inputs)))

let crypto_benches =
  [
    Test.make ~name:"sha256/1KiB"
      (Staged.stage
         (let buf = String.make 1024 'x' in
          fun () -> ignore (Sb_crypto.Sha256.digest buf)));
    Test.make ~name:"pedersen-deal/n=8,t=3"
      (Staged.stage (fun () ->
           let rng = Sb_util.Rng.create 7 in
           ignore
             (Sb_crypto.Pedersen.deal rng ~threshold:3 ~parties:8 ~secret:Sb_crypto.Field.one)));
    Test.make ~name:"shamir-reconstruct/t=3"
      (Staged.stage
         (let rng = Sb_util.Rng.create 9 in
          let shares, _ =
            Sb_crypto.Shamir.share rng ~threshold:3 ~parties:8
              ~secret:(Sb_crypto.Field.of_int 5)
          in
          let subset = Array.to_list (Array.sub shares 0 4) in
          fun () -> ignore (Sb_crypto.Shamir.reconstruct subset)));
  ]

let timing_tests =
  let per_protocol =
    List.concat_map
      (fun (name, p) ->
        List.map (fun n -> protocol_bench name p ~n ~thresh:((n - 1) / 2)) [ 5; 8; 16 ])
      [
        ("ideal-fsb", Sb_protocols.Ideal_sb.protocol);
        ("naive-sequential", Sb_protocols.Naive.sequential);
        ("gennaro-constant", Sb_protocols.Gennaro.protocol);
        ("chor-rabin-log", Sb_protocols.Chor_rabin.protocol);
        ("cgma-vss", Sb_protocols.Cgma.protocol);
      ]
  in
  Test.make_grouped ~name:"E9" (crypto_benches @ per_protocol)

let run_timing () =
  say "== E9: wall-clock timing (Bechamel; ns per execution) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  (* Bechamel picks its iteration counts from the host's speed; keep
     those runs out of the counters so that every bench run of the
     same experiments reports the same sim.* and exp.* totals. *)
  Sb_obs.Metrics.set_enabled false;
  let raw_results =
    Fun.protect
      ~finally:(fun () -> Sb_obs.Metrics.set_enabled true)
      (fun () -> Benchmark.all cfg instances timing_tests)
  in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  let table =
    Sb_util.Tabular.create ~title:"E9 timings" ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  let entries = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
      List.iter
        (fun (name, ols) ->
          let ns = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan in
          let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
          Sb_util.Tabular.add_row table
            [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.4f" r2 ];
          entries :=
            { Sb_obs.Report.bench_name = name; ns_per_run = ns; r_square = r2 } :: !entries)
        rows)
    results;
  Sb_util.Tabular.print table;
  List.rev !entries

(* --- G-tester smoke: the fixed-cost delivery-path guard ------------ *)

(* One G-independence run at a pinned 20k-sample budget — the
   sampler's hot loop is dominated by network delivery, so this scalar
   tracks the engine itself across commits. Recorded in every
   BENCH_*.json (timings entry "gtester-smoke/20k"); CI diffs it
   against the committed quick baseline. *)
let run_gtester_smoke () =
  let setup = Core.Setup.with_samples 20_000 Core.Setup.default in
  let n = setup.Core.Setup.n in
  let protocol = Sb_protocols.Gennaro.protocol in
  let adversary = Core.Adversaries.semi_honest protocol ~corrupt:[ n - 2; n - 1 ] in
  let t0 = Unix.gettimeofday () in
  let r = Core.G_test.run setup ~protocol ~adversary ~dist:(Sb_dist.Dist.uniform n) () in
  let wall = Unix.gettimeofday () -. t0 in
  say "== gtester-smoke: 20k samples in %.2fs (verdict %s) ==" wall
    (Sb_stats.Verdict.to_string r.Core.G_test.verdict);
  { Sb_obs.Report.bench_name = "gtester-smoke/20k"; ns_per_run = wall *. 1e9; r_square = 1.0 }

(* --- comm totals (schema v2) --------------------------------------- *)

let comm_totals () =
  let c name = Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter name) in
  ( c "sim.broadcasts",
    c "sim.p2p",
    c "sim.bytes.broadcast",
    c "sim.bytes.p2p" )

let print_comm () =
  let bc, p2p, bc_b, p2p_b = comm_totals () in
  say "== comm totals: %d broadcasts (%d B), %d p2p msgs (%d B) ==" bc bc_b p2p p2p_b;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir "comm.csv" in
      let oc = open_out path in
      output_string oc "broadcasts,p2p_messages,broadcast_bytes,p2p_bytes\n";
      Printf.fprintf oc "%d,%d,%d,%d\n" bc p2p bc_b p2p_b;
      close_out oc;
      say "wrote %s" path

(* --- entry --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench [quick] [timing|tables] [EXPERIMENT_ID...] [--csv=DIR] [--jobs=N] [--count=N]";
  Printf.eprintf "known experiment ids: %s\n"
    (String.concat " "
       (List.map (fun (e : Core.Experiments.entry) -> e.Core.Experiments.id)
          (Core.Experiments.catalogue ())));
  exit 2

let () =
  (* E18 lives in sb_workload (it needs the session engine); register
     it before anything touches the catalogue so the default
     run-everything loop and the id filter both see it. *)
  Sb_workload.E18.register ();
  (* The bench run is the perf-trajectory artifact: observability on. *)
  Sb_obs.Metrics.set_enabled true;
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs_prefix = "--jobs=" in
  let jobs_of a =
    let pl = String.length jobs_prefix in
    if String.length a > pl && String.sub a 0 pl = jobs_prefix then
      int_of_string_opt (String.sub a pl (String.length a - pl))
    else None
  in
  (match List.find_map jobs_of args with
  | Some j when j <= 0 ->
      Printf.eprintf "bench: --jobs must be a positive integer, got %d\n" j;
      exit 2
  | Some j -> Sb_par.Pool.set_default_domains j
  | None -> ());
  (* Sessions-probe batch size; same validation contract as --jobs. *)
  let count_prefix = "--count=" in
  let count_of a =
    let pl = String.length count_prefix in
    if String.length a > pl && String.sub a 0 pl = count_prefix then
      int_of_string_opt (String.sub a pl (String.length a - pl))
    else None
  in
  let session_count =
    match List.find_map count_of args with
    | Some c when c <= 0 ->
        Printf.eprintf "bench: --count must be a positive integer, got %d\n" c;
        exit 2
    | Some c -> c
    | None -> 120
  in
  let quick = List.mem "quick" args in
  let setup =
    if quick then Core.Setup.with_samples 2000 Core.Setup.default else Core.Setup.default
  in
  (match List.find_opt (fun a -> String.length a > 6 && String.sub a 0 6 = "--csv=") args with
  | Some a -> csv_dir := Some (String.sub a 6 (String.length a - 6))
  | None -> ());
  let ids =
    List.filter
      (fun a ->
        a <> "quick" && a <> "timing" && a <> "tables"
        && not (String.length a > 6 && String.sub a 0 6 = "--csv=")
        && jobs_of a = None && count_of a = None)
      args
  in
  (* Reject anything unrecognised up front instead of silently treating
     it as an experiment id: an unknown flag or a typoed id used to
     warn and exit 0, which let CI invocations rot. *)
  List.iter
    (fun a ->
      if String.length a > 1 && a.[0] = '-' then begin
        Printf.eprintf "bench: unknown option %s\n" a;
        usage ()
      end
      else if Core.Experiments.find a = None then begin
        Printf.eprintf "bench: unknown experiment id %s\n" a;
        usage ()
      end)
    ids;
  let timing_only = List.mem "timing" args in
  let tables_only = List.mem "tables" args in
  let outcomes = if timing_only then [] else run_experiments setup ids in
  let timings =
    if (not tables_only) && (ids = [] || timing_only) then run_timing () else []
  in
  let crypto_timings = Crypto.run () in
  Crypto.print_summary crypto_timings;
  (match !csv_dir with Some dir -> Crypto.write_csv dir crypto_timings | None -> ());
  let delivery_timings = Delivery_probe.run () in
  Delivery_probe.print_summary delivery_timings;
  let session_timings, sessions_block = Sessions.run ~count:session_count () in
  let workload_timings = Workloads.run () in
  let timings =
    timings @ [ run_gtester_smoke () ] @ crypto_timings @ delivery_timings
    @ session_timings @ workload_timings
  in
  print_comm ();
  let tag =
    if quick then "quick"
    else if timing_only then "timing"
    else if ids = [] then "full"
    else String.concat "_" (List.map String.lowercase_ascii ids)
  in
  let experiments =
    List.map
      (fun ((o : Core.Experiments.outcome), cost) ->
        {
          Sb_obs.Report.id = o.Core.Experiments.id;
          title = o.Core.Experiments.title;
          ok = o.Core.Experiments.ok;
          rows_checked = o.Core.Experiments.rows_checked;
          cost;
          notes = o.Core.Experiments.notes;
        })
      outcomes
  in
  let report =
    Sb_obs.Report.make ~tool:"bench" ~tag
      ~jobs:(Sb_par.Pool.get_default_domains ())
      ~experiments ~timings ?sessions:sessions_block ()
  in
  let path = Printf.sprintf "BENCH_%s.json" tag in
  Sb_obs.Report.write_file path report;
  say "wrote %s" path;
  (* Perf trajectory: one compact row per bench invocation, appended to
     a gitignored jsonl log so local runs accumulate a history that
     `simbcast perf-diff` endpoints can be picked from. *)
  let utc =
    let t = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec
  in
  let hist = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl" in
  Fun.protect
    ~finally:(fun () -> close_out hist)
    (fun () ->
      output_string hist (Sb_obs.Json.to_string (Sb_obs.Report.history_row ~utc report));
      output_char hist '\n');
  say "appended BENCH_history.jsonl"
