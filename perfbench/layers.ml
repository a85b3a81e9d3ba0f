(* Per-layer numbers shared by the workloads: round-engine tallies of
   the executions a workload drives through Network.run itself, and
   the self times of the wrapped closures.

   Counts are taken from an untraced pass, so tracing's own allocation
   never reaches sim.minor_words_per_session; a traced run repeats
   that pass at the same seed, so its span times and these counts
   describe the same executions. *)

type sim = {
  mutable runs : int;
  mutable rounds : int;
  mutable p2p : int;
  mutable deliveries : int;
  mutable bytes : int;
  mutable words : float;
}

let sim_create () = { runs = 0; rounds = 0; p2p = 0; deliveries = 0; bytes = 0; words = 0.0 }

(* Whether the current pass takes counts. A traced run counts in its
   first pass only. The drives that mirror the testers' and the
   engine's own Network.run calls tally traffic only while counting,
   because the tally costs time in the round engine. *)
let counting = ref true

let sim_add s (r : Sb_sim.Network.result) words =
  match r.Sb_sim.Network.comm with
  | Some c when !counting ->
    s.runs <- s.runs + 1;
    s.rounds <- s.rounds + r.Sb_sim.Network.rounds_used;
    s.p2p <- s.p2p + r.Sb_sim.Network.p2p_messages;
    s.deliveries <- s.deliveries + c.Sb_sim.Network.deliveries;
    s.bytes <- s.bytes + c.Sb_sim.Network.broadcast_bytes + c.Sb_sim.Network.p2p_bytes;
    s.words <- s.words +. words
  | _ -> ()

let sim_exact s =
  [
    ("sim.runs", s.runs);
    ("sim.rounds", s.rounds);
    ("sim.p2p", s.p2p);
    ("sim.deliveries", s.deliveries);
    ("sim.bytes", s.bytes);
    ("sim.minor_words", int_of_float s.words);
  ]

let ratio a b = if b = 0 then 0.0 else a /. float_of_int b

let sim_metrics s k =
  [
    ("sim.self_us_per_session", ratio (Spans.self_s k *. 1e6) (Spans.count k));
    ("sim.self_ns_per_delivery", ratio (Spans.self_s k *. 1e9 *. float_of_int s.runs) (Spans.count k * s.deliveries));
    ("sim.rounds_per_session", ratio (float_of_int s.rounds) s.runs);
    ("sim.p2p_per_session", ratio (float_of_int s.p2p) s.runs);
    ("sim.deliveries_per_session", ratio (float_of_int s.deliveries) s.runs);
    ("sim.bytes_per_session", ratio (float_of_int s.bytes) s.runs);
    ("sim.minor_words_per_session", ratio s.words s.runs);
  ]

(* Self time of the wrapped party, adversary, functionality and fault
   closures, per session; [sessions] is the workload's session count
   for the traced pass. *)
let closure_metrics ~sessions =
  let us k = ratio (Spans.self_s k *. 1e6) sessions in
  let steps = List.fold_left (fun acc (_, k) -> acc + Spans.count k) 0 Wrap.k_step in
  List.map
    (fun (f, k) -> ("party.step_self_us_per_session." ^ Wrap.family_name f, us k))
    Wrap.k_step
  @ [
      ("party.make_us_per_session", us Wrap.k_make);
      ("party.output_us_per_session", us Wrap.k_output);
      ("party.steps_per_session", ratio (float_of_int steps) sessions);
      ( "adversary.act_self_us_per_session",
        ratio ((Spans.self_s Wrap.k_act +. Spans.self_s Wrap.k_adv_init) *. 1e6) sessions );
      ("functionality.step_us_per_session", us Wrap.k_func);
      ("fault.intercept_us_per_session", us Wrap.k_fault);
    ]
