(* sb_check: the exhaustive small-n model checker.

   The load-bearing facts pinned here: the standalone replay executor
   agrees with the real network (Network.run + Inject-compiled plans)
   on every schedule we throw at it, checker verdicts match the
   hand-derived exact cells recorded in Core.Resilience, emitted
   counterexamples are minimal and reproduce their violation when
   replayed through the --faults pipeline, and the whole thing is
   deterministic. *)

open Sb_sim
open Sb_check

let seed = 7

let ctx_for n t =
  let setup = Core.Setup.{ default with n; thresh = t; seed } in
  Core.Setup.fresh_ctx setup (Sb_util.Rng.split (Sb_util.Rng.create seed))

let scheme_exn name =
  match Checker.find_scheme name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scheme %s" name

(* A single broadcast session as a Protocol.t, so Network.run can
   drive exactly what Exec.replay simulates. *)
let single_session (scheme : Sb_broadcast.Session.scheme) ~sender ~value =
  {
    Protocol.name = "single-" ^ scheme.Sb_broadcast.Session.scheme_name;
    rounds = scheme.Sb_broadcast.Session.rounds;
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input:_ ->
        let s =
          scheme.Sb_broadcast.Session.create ctx ~rng ~sid:"chk" ~sender ~me:id
            ~value:(if id = sender then Some value else None)
        in
        { Party.step = s.Sb_broadcast.Session.step; output = s.Sb_broadcast.Session.result });
  }

let witness_of ~sender ~value ~faulty decisions =
  {
    Checker.w_property = Checker.Agreement;
    w_sender = sender;
    w_value = value;
    w_faulty = faulty;
    w_decisions = decisions;
  }

(* Run the same single session through the real network under the
   compiled plan of [decisions] and collect every party's result. *)
let network_results ctx scheme ~sender ~value ~faulty decisions =
  let n = ctx.Ctx.n in
  let plan = Checker.plan_of_witness (witness_of ~sender ~value ~faulty decisions) in
  let protocol = single_session scheme ~sender ~value in
  let inputs = Array.init n (fun i -> if i = sender then value else Msg.Bit false) in
  let r =
    Network.run ctx
      ~rng:(Sb_util.Rng.create seed)
      ~protocol
      ~adversary:(Adversary.passive protocol)
      ~inputs ~record_trace:false
      ~faults:(Sb_fault.Inject.compile ~n plan)
      ()
  in
  Array.init n (fun i -> List.assoc i r.Network.outputs)

let exec_results config decisions =
  let total = Exec.total_rounds config in
  let padded =
    decisions @ List.init (max 0 (total - List.length decisions)) (fun _ -> [])
  in
  match (Exec.replay config padded).Exec.status with
  | Exec.Terminal results -> results
  | Exec.Mid _ -> Alcotest.fail "padded replay did not terminate"

let msg = Alcotest.testable (Fmt.of_to_string Msg.serialize) Msg.equal

(* --- executor vs real network differential --------------------------- *)

let test_exec_matches_network () =
  let schedules p =
    [
      [];
      [ [ (p, Exec.Crash) ] ];
      [ [ (p, Exec.Omit) ] ];
      [ [ (p, Exec.Delay) ] ];
      [ []; [ (p, Exec.Omit) ] ];
      [ []; [ (p, Exec.Delay) ] ];
      [ []; [ (p, Exec.Crash) ] ];
      [ [ (p, Exec.Omit) ]; [ (p, Exec.Delay) ] ];
      [ [ (p, Exec.Delay) ]; []; [ (p, Exec.Omit) ] ];
      [ []; [ (p, Exec.Delay) ]; [ (p, Exec.Crash) ] ];
    ]
  in
  List.iter
    (fun name ->
      let scheme = scheme_exn name in
      let ctx = ctx_for 4 1 in
      List.iter
        (fun value ->
          List.iter
            (fun p ->
              List.iter
                (fun decisions ->
                  (* Schemes differ in round count; clip schedules that
                     outrun this one (dolev-strong has t+1 = 2). *)
                  let config =
                    { Exec.ctx; scheme; sender = 0; value; faulty = [ p ] }
                  in
                  let decisions =
                    List.filteri (fun i _ -> i < Exec.total_rounds config) decisions
                  in
                  let ex = exec_results config decisions in
                  let nw =
                    network_results ctx scheme ~sender:0 ~value ~faulty:[ p ] decisions
                  in
                  Alcotest.(check (array msg))
                    (Printf.sprintf "%s value=%s faulty=%d schedule=%d-entries" name
                       (Msg.serialize value) p (List.length decisions))
                    nw ex)
                (schedules p))
            [ 0; 3 ])
        [ Msg.Bit false; Msg.Bit true ])
    [ "bracha"; "dolev-strong"; "send-echo" ]

(* Two faulty parties acting in the same round, against the network. *)
let test_exec_matches_network_two_faulty () =
  let scheme = scheme_exn "bracha" in
  let ctx = ctx_for 4 2 in
  let decisions = [ [ (0, Exec.Omit); (3, Exec.Delay) ]; [ (3, Exec.Crash) ] ] in
  let config =
    { Exec.ctx; scheme; sender = 0; value = Msg.Bit true; faulty = [ 0; 3 ] }
  in
  let ex = exec_results config decisions in
  let nw =
    network_results ctx scheme ~sender:0 ~value:(Msg.Bit true) ~faulty:[ 0; 3 ] decisions
  in
  Alcotest.(check (array msg)) "joint schedule matches network" nw ex

(* --- incremental digests vs the seed replay --------------------------- *)

(* Pinned copy of the seed executor: it re-executes the whole decision
   prefix and re-serialises and re-digests every round, per state.
   Exec now keys each state once, incrementally over its parent; this
   copy digests the same bytes from scratch, so any drift in the
   incremental bookkeeping shows up as a digest or status mismatch. *)
module Seed_exec = struct
  open Exec

  let sid = "chk"

  let endpoint_key = function
    | Envelope.Party i -> "P" ^ string_of_int i
    | Envelope.Func -> "F"
    | Envelope.All -> "*"

  let envelope_key (e : Envelope.t) =
    Printf.sprintf "%s>%s:%s" (endpoint_key e.Envelope.src) (endpoint_key e.Envelope.dst)
      (Msg.serialize e.Envelope.body)

  let envelopes_key envs = String.concat ";" (List.map envelope_key envs)

  type state = {
    cfg : config;
    sessions : Sb_broadcast.Session.t array;
    crash_round : int array;
    hist : string array;
    mutable queue : Envelope.t list;
    held : (int, Envelope.t list ref) Hashtbl.t;
  }

  let create config =
    let n = config.ctx.Ctx.n in
    let rng = Sb_util.Rng.create 0 in
    let sessions =
      Array.init n (fun me ->
          config.scheme.Sb_broadcast.Session.create config.ctx ~rng:(Sb_util.Rng.split rng)
            ~sid ~sender:config.sender ~me
            ~value:(if me = config.sender then Some config.value else None))
    in
    {
      cfg = config;
      sessions;
      crash_round = Array.make n max_int;
      hist = Array.make n "";
      queue = [];
      held = Hashtbl.create 8;
    }

  let deliver_and_collect st ~round =
    let n = st.cfg.ctx.Ctx.n in
    let out = ref [] in
    for me = n - 1 downto 0 do
      let inbox = List.filter (fun e -> Envelope.delivered_to e me) st.queue in
      st.hist.(me) <- Digest.string (st.hist.(me) ^ "|" ^ envelopes_key inbox);
      let sent = st.sessions.(me).Sb_broadcast.Session.step ~round ~inbox in
      out := sent @ !out
    done;
    !out

  let intercept st ~round (decision : decision) out =
    List.iter
      (fun (p, a) ->
        if a = Crash then st.crash_round.(p) <- min st.crash_round.(p) round)
      decision;
    let released =
      match Hashtbl.find_opt st.held round with
      | Some l ->
          Hashtbl.remove st.held round;
          List.rev !l
      | None -> []
    in
    let hold ~due e =
      match Hashtbl.find_opt st.held due with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add st.held due (ref [ e ])
    in
    let keep =
      List.filter
        (fun (e : Envelope.t) ->
          match Envelope.src_party e with
          | Some i when round >= st.crash_round.(i) -> false
          | src -> (
              match (src, Envelope.dst_party e) with
              | Some s, Some d when s <> d -> (
                  match List.assoc_opt s decision with
                  | Some Omit -> false
                  | Some Delay ->
                      hold ~due:(round + 1) e;
                      false
                  | Some Crash | None -> true)
              | _ -> true))
        out
    in
    st.queue <- released @ keep

  let digest_of st ~round ~terminal =
    let n = st.cfg.ctx.Ctx.n in
    let crashes =
      if terminal then ""
      else String.init n (fun i -> if st.crash_round.(i) = max_int then '-' else 'x')
    in
    let held =
      if terminal then ""
      else
        Hashtbl.fold (fun due l acc -> (due, envelopes_key (List.rev !l)) :: acc) st.held []
        |> List.sort compare
        |> List.map (fun (due, k) -> Printf.sprintf "%d=%s" due k)
        |> String.concat "&"
    in
    Digest.string
      (String.concat "#"
         [
           string_of_int round;
           crashes;
           String.concat "!" (Array.to_list st.hist);
           envelopes_key st.queue;
           held;
         ])

  (* Returns the digest and status a snapshot of [decisions] must carry. *)
  let replay config decisions =
    let total = total_rounds config in
    let len = List.length decisions in
    assert (len <= total);
    let st = create config in
    List.iteri
      (fun round decision ->
        let out = deliver_and_collect st ~round in
        intercept st ~round decision out)
      decisions;
    let digest = digest_of st ~round:len ~terminal:(len = total) in
    if len = total then begin
      let _discarded = deliver_and_collect st ~round:total in
      let results = Array.map (fun s -> s.Sb_broadcast.Session.result ()) st.sessions in
      (digest, Terminal results)
    end
    else
      let out = deliver_and_collect st ~round:len in
      (digest, Mid out)
end

let same_envelope (a : Envelope.t) (b : Envelope.t) =
  a.Envelope.src = b.Envelope.src
  && a.Envelope.dst = b.Envelope.dst
  && Msg.equal a.Envelope.body b.Envelope.body

let same_status a b =
  match (a, b) with
  | Exec.Mid x, Exec.Mid y -> List.equal same_envelope x y
  | Exec.Terminal x, Exec.Terminal y ->
      Array.length x = Array.length y && Array.for_all2 Msg.equal x y
  | _ -> false

(* The checker's decision alphabet: each still-alive faulty party stays
   healthy or crashes, and omits or delays the round's point-to-point
   traffic when it has any. *)
let alphabet (config : Exec.config) prefix out =
  let has_p2p p =
    List.exists
      (fun (e : Envelope.t) ->
        match (Envelope.src_party e, Envelope.dst_party e) with
        | Some s, Some d -> s = p && d <> p
        | _ -> false)
      out
  in
  List.fold_right
    (fun p rest ->
      let actions =
        [ None; Some Exec.Crash ]
        @ if has_p2p p then [ Some Exec.Omit; Some Exec.Delay ] else []
      in
      List.concat_map
        (fun a -> List.map (fun d -> match a with None -> d | Some a -> (p, a) :: d) rest)
        actions)
    (List.filter (fun p -> not (Exec.crashed_before prefix p)) config.Exec.faulty)
    [ [] ]

(* The checker's search at n = 4, t in {1, 2}, for every scheme: every
   config, every decision of the alphabet, memoised by digest. Every
   state Exec.child builds — memo hits included — must carry the seed
   replay's digest and status, and every terminal's Exec.replay too.
   Phase-king at t = 2 runs past a million states at n = 4, so that
   cell expands at most [pk_budget] states per config. *)
let pk_budget = 60

let test_child_matches_seed () =
  let crashes = ref 0 and omits = ref 0 and delays = ref 0 and releases = ref 0 in
  let agree what (config : Exec.config) (snap : Exec.snapshot) =
    let digest, status = Seed_exec.replay config snap.Exec.decisions in
    if not (String.equal digest snap.Exec.digest && same_status status snap.Exec.status) then
      Alcotest.failf "%s t=%d sender=%d value=%s faulty=%s: %s differs from the seed at a %d-round prefix"
        config.Exec.scheme.Sb_broadcast.Session.scheme_name config.Exec.ctx.Ctx.thresh
        config.Exec.sender (Msg.serialize config.Exec.value)
        (String.concat "," (List.map string_of_int config.Exec.faulty))
        what (List.length snap.Exec.decisions)
  in
  let count decisions =
    let last = List.length decisions - 1 in
    List.iteri
      (fun r d ->
        List.iter
          (fun (_, a) ->
            if r = last then
              match a with
              | Exec.Crash -> incr crashes
              | Exec.Omit -> incr omits
              | Exec.Delay -> incr delays
            else if r = last - 1 && a = Exec.Delay then
              (* this child's interception released what [r] held *)
              incr releases)
          d)
      decisions
  in
  List.iter
    (fun (name, scheme) ->
      List.iter
        (fun t ->
          let ctx = ctx_for 4 t in
          let budget = if name = "phase-king" && t = 2 then pk_budget else max_int in
          List.iter
            (fun faulty ->
              List.iter
                (fun sender ->
                  List.iter
                    (fun value ->
                      let config = { Exec.ctx; scheme; sender; value; faulty } in
                      let visited = Hashtbl.create 256 in
                      let rec go snap =
                        agree "child" config snap;
                        count snap.Exec.decisions;
                        if Hashtbl.length visited < budget
                           && not (Hashtbl.mem visited snap.Exec.digest)
                        then begin
                          Hashtbl.add visited snap.Exec.digest ();
                          match snap.Exec.status with
                          | Exec.Terminal _ ->
                              agree "replay" config (Exec.replay config snap.Exec.decisions)
                          | Exec.Mid out ->
                              List.iter
                                (fun d -> go (Exec.child config snap d))
                                (alphabet config snap.Exec.decisions out)
                        end
                      in
                      go (Exec.root config))
                    [ Msg.Bit false; Msg.Bit true ])
                (List.init 4 Fun.id))
            (Sb_util.Subset.all_up_to 4 t))
        [ 1; 2 ])
    Checker.schemes;
  List.iter
    (fun (what, k) -> Alcotest.(check bool) (what ^ " decisions covered") true (!k > 0))
    [ ("crash", crashes); ("omit", omits); ("delay", delays); ("release", releases) ]

let test_child_of_terminal_rejected () =
  let config =
    { Exec.ctx = ctx_for 4 1; scheme = scheme_exn "dolev-strong"; sender = 0;
      value = Msg.Bit true; faulty = [ 1 ] }
  in
  let terminal = Exec.replay config (List.init (Exec.total_rounds config) (fun _ -> [])) in
  Alcotest.check_raises "no children past the terminal"
    (Invalid_argument "Sb_check.Exec: a terminal state has no children") (fun () ->
      ignore (Exec.child config terminal []))

(* --- checker verdicts ------------------------------------------------- *)

let verdict = Alcotest.testable (Fmt.of_to_string Checker.verdict_name) (fun a b ->
    Checker.verdict_name a = Checker.verdict_name b)

let test_bracha_below_boundary () =
  let r = Checker.check ~scheme:(scheme_exn "bracha") (ctx_for 4 1) in
  Alcotest.(check verdict) "agreement" Checker.Holds r.Checker.agreement;
  Alcotest.(check verdict) "validity" Checker.Holds r.Checker.validity;
  Alcotest.(check verdict) "unforgeability" Checker.Holds r.Checker.unforgeability;
  Alcotest.(check bool) "not capped" false r.Checker.capped;
  Alcotest.(check bool) "explored states" true (r.Checker.stats.explored > 0);
  Alcotest.(check bool) "memo hits" true (r.Checker.stats.memo_hits > 0);
  Alcotest.(check bool) "terminals" true (r.Checker.stats.terminals > 0);
  Alcotest.(check (triple int int int))
    "explored / memo hits / terminals" (1376, 408, 496)
    (r.Checker.stats.explored, r.Checker.stats.memo_hits, r.Checker.stats.terminals)

let test_bracha_above_boundary () =
  let r = Checker.check ~scheme:(scheme_exn "bracha") (ctx_for 4 2) in
  Alcotest.(check verdict) "agreement still holds" Checker.Holds r.Checker.agreement;
  Alcotest.(check verdict) "unforgeability still holds" Checker.Holds
    r.Checker.unforgeability;
  match r.Checker.validity with
  | Checker.Violated w ->
      (* Accepting needs 2t+1 = 5 > n = 4 readies: a true broadcast is
         lost with no faults injected at all. *)
      Alcotest.(check (list (list (pair int (Alcotest.testable (fun _ _ -> ()) ( = ))))))
        "fault-free minimal witness" [] w.Checker.w_decisions;
      Alcotest.(check (list int)) "no faulty party needed" [] w.Checker.w_faulty;
      Alcotest.(check msg) "true value lost" (Msg.Bit true) w.Checker.w_value
  | v -> Alcotest.failf "expected validity violation, got %s" (Checker.verdict_name v)

let test_exact_cells_differential () =
  List.iter
    (fun (c : Core.Resilience.exact_cell) ->
      let scheme = scheme_exn c.Core.Resilience.cell_protocol in
      let r = Checker.check ~scheme (ctx_for c.cell_n c.cell_t) in
      let point = Printf.sprintf "%s n=%d t=%d" c.cell_protocol c.cell_n c.cell_t in
      List.iter
        (fun (prop, expected, got) ->
          match expected with
          | None -> ()
          | Some holds ->
              let want = if holds then "pass" else "violated" in
              Alcotest.(check string)
                (Printf.sprintf "%s %s" point prop)
                want
                (Checker.verdict_name got))
        [
          ("agreement", c.exp_agreement, r.Checker.agreement);
          ("validity", c.exp_validity, r.Checker.validity);
          ("unforgeability", c.exp_unforgeability, r.Checker.unforgeability);
        ])
    Core.Resilience.exact_cells

(* State counts and verdicts at n = 5, pinned: the digest encoding
   decides which states merge, so any change to the bytes a state is
   keyed by moves these counts. *)
let test_pinned_counts_n5 () =
  List.iter
    (fun (name, t, counts, verdicts) ->
      let r = Checker.check ~scheme:(scheme_exn name) (ctx_for 5 t) in
      let s = r.Checker.stats in
      let point = Printf.sprintf "%s 5/%d" name t in
      Alcotest.(check (triple int int int))
        (point ^ " explored / memo hits / terminals")
        counts
        (s.Checker.explored, s.Checker.memo_hits, s.Checker.terminals);
      Alcotest.(check (list string))
        (point ^ " verdicts") verdicts
        (List.map Checker.verdict_name
           [ r.Checker.agreement; r.Checker.validity; r.Checker.unforgeability ]);
      match r.Checker.validity with
      | Checker.Violated w ->
          (* eig 5/2: two faulty parties crash in the last send round. *)
          Alcotest.(check string)
            (point ^ " minimised witness")
            "validity violated: sender 2, value 1, faulty {0,1}, faults crash:0@2;crash:1@2"
            (Format.asprintf "%a" Checker.pp_witness w);
          Alcotest.(check int) (point ^ " witness rounds") 3 (List.length w.Checker.w_decisions)
      | Checker.Holds | Checker.Inconclusive -> ())
    [
      ("send-echo", 2, (2820, 2470, 1970), [ "pass"; "pass"; "pass" ]);
      ("dolev-strong", 1, (360, 110, 170), [ "pass"; "pass"; "pass" ]);
      ("bracha", 1, (2050, 610, 750), [ "pass"; "pass"; "pass" ]);
      ("phase-king", 1, (3952, 1090, 1560), [ "pass"; "pass"; "pass" ]);
      ("eig", 2, (9740, 7060, 6970), [ "pass"; "violated"; "pass" ]);
    ]

let test_deterministic () =
  let run () = Checker.check ~scheme:(scheme_exn "send-echo") (ctx_for 3 2) in
  Alcotest.(check bool) "two runs structurally equal" true (run () = run ())

let test_state_budget_caps () =
  let r = Checker.check ~max_states:10 ~scheme:(scheme_exn "bracha") (ctx_for 4 1) in
  Alcotest.(check bool) "capped" true r.Checker.capped;
  Alcotest.(check verdict) "holding verdicts degrade to inconclusive" Checker.Inconclusive
    r.Checker.agreement

let test_rejects_large_n () =
  Alcotest.check_raises "n=6 refused"
    (Invalid_argument "Sb_check.Checker.check: n = 6 exceeds max_n = 5") (fun () ->
      ignore (Checker.check ~scheme:(scheme_exn "send-echo") (ctx_for 6 1)))

(* --- counterexample round-trip --------------------------------------- *)

let validity_witness () =
  let r = Checker.check ~scheme:(scheme_exn "send-echo") (ctx_for 3 2) in
  match r.Checker.validity with
  | Checker.Violated w -> w
  | v -> Alcotest.failf "expected validity violation, got %s" (Checker.verdict_name v)

let violates_validity ctx scheme (w : Checker.witness) decisions =
  let results =
    network_results ctx scheme ~sender:w.Checker.w_sender ~value:w.Checker.w_value
      ~faulty:w.Checker.w_faulty decisions
  in
  let honest = Sb_util.Subset.complement ctx.Ctx.n w.Checker.w_faulty in
  (not (Sb_util.Subset.mem w.Checker.w_sender w.Checker.w_faulty))
  && not (List.for_all (fun i -> Msg.equal results.(i) w.Checker.w_value) honest)

let test_counterexample_roundtrip () =
  let w = validity_witness () in
  let ctx = ctx_for 3 2 in
  let scheme = scheme_exn "send-echo" in
  (* The emitted schedule, compiled to a --faults plan and replayed
     through the real network, reproduces the violation... *)
  Alcotest.(check bool) "witness replays to a violation" true
    (violates_validity ctx scheme w w.Checker.w_decisions);
  (* ...and it is minimal: removing any single entry loses it. *)
  List.iteri
    (fun r d ->
      List.iteri
        (fun k _ ->
          let shrunk =
            List.mapi
              (fun r' d' ->
                if r' = r then List.filteri (fun k' _ -> k' <> k) d' else d')
              w.Checker.w_decisions
          in
          Alcotest.(check bool)
            (Printf.sprintf "dropping entry %d of round %d loses the violation" k r)
            false
            (violates_validity ctx scheme w shrunk))
        d)
    w.Checker.w_decisions

let test_witness_plan_grammar_roundtrip () =
  let w = validity_witness () in
  let plan = Checker.plan_of_witness w in
  Alcotest.(check bool) "witness plan is non-empty" true (plan <> []);
  let s = Sb_fault.Plan.to_string plan in
  match Sb_fault.Plan.of_string s with
  | Ok plan' -> Alcotest.(check bool) ("reparses: " ^ s) true (plan = plan')
  | Error e -> Alcotest.failf "%s does not reparse: %s" s e

(* --- observability ---------------------------------------------------- *)

let test_check_metrics () =
  Sb_obs.Metrics.set_enabled true;
  Sb_obs.Metrics.reset ();
  let r = Checker.check ~scheme:(scheme_exn "dolev-strong") (ctx_for 3 1) in
  let c name = Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter name) in
  Alcotest.(check int) "check.states counter" r.Checker.stats.explored (c "check.states");
  Alcotest.(check int) "check.memo_hits counter" r.Checker.stats.memo_hits
    (c "check.memo_hits");
  Alcotest.(check int) "check.terminals counter" r.Checker.stats.terminals
    (c "check.terminals");
  Sb_obs.Metrics.reset ();
  Sb_obs.Metrics.set_enabled false

let test_report_block_validates () =
  let r = Checker.check ~scheme:(scheme_exn "bracha") (ctx_for 4 1) in
  let report = Sb_obs.Report.make ~tag:"check" ~check:(Checker.result_to_json r) () in
  (match Sb_obs.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check report invalid: %s" e);
  (* A malformed verdict string must be rejected. *)
  let bad =
    Sb_obs.Report.make ~tag:"check"
      ~check:
        (Sb_obs.Json.Obj
           [
             ("n", Sb_obs.Json.Int 4);
             ("t", Sb_obs.Json.Int 1);
             ("max_states", Sb_obs.Json.Int 1);
             ("configs", Sb_obs.Json.Int 1);
             ("explored", Sb_obs.Json.Int 1);
             ("memo_hits", Sb_obs.Json.Int 0);
             ("terminals", Sb_obs.Json.Int 1);
             ("agreement", Sb_obs.Json.Str "maybe");
             ("validity", Sb_obs.Json.Str "pass");
             ("unforgeability", Sb_obs.Json.Str "pass");
           ])
      ()
  in
  match Sb_obs.Report.validate bad with
  | Ok () -> Alcotest.fail "bad verdict string validated"
  | Error _ -> ()

let () =
  Alcotest.run "sb_check"
    [
      ( "executor",
        [
          Alcotest.test_case "matches the real network" `Quick test_exec_matches_network;
          Alcotest.test_case "matches with two faulty parties" `Quick
            test_exec_matches_network_two_faulty;
          Alcotest.test_case "child matches the seed replay (n=4)" `Quick
            test_child_matches_seed;
          Alcotest.test_case "terminal has no children" `Quick test_child_of_terminal_rejected;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "bracha 4/1 exact-pass" `Quick test_bracha_below_boundary;
          Alcotest.test_case "bracha 4/2 validity flip" `Quick test_bracha_above_boundary;
          Alcotest.test_case "matches recorded exact cells" `Quick
            test_exact_cells_differential;
          Alcotest.test_case "pinned n=5 counts" `Quick test_pinned_counts_n5;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "state budget caps" `Quick test_state_budget_caps;
          Alcotest.test_case "rejects n beyond max_n" `Quick test_rejects_large_n;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "round-trip through --faults" `Quick
            test_counterexample_roundtrip;
          Alcotest.test_case "plan grammar round-trip" `Quick
            test_witness_plan_grammar_roundtrip;
        ] );
      ( "observability",
        [
          Alcotest.test_case "check.* counters" `Quick test_check_metrics;
          Alcotest.test_case "report block validates" `Quick test_report_block_validates;
        ] );
    ]
