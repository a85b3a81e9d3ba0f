(* single-large-n: the E17 configuration. One honest single-sender
   session (Parallel.single) per case at t = 1, for send-echo,
   dolev-strong, bracha and phase-king at n in {256, 512}, on an arena
   context with record_trace:false, record_comm:true and
   reuse_envelopes:true.

   The same sb_sim layer as the other workloads, used the other way
   round: few sessions with O(n^2) envelopes per round, so the Router
   fan-out, the envelope arena and Bitvec.Mut do the work while
   context set-up, statistics and the scheduler do none. *)

open Sb_util
open Sb_sim

let ns = [ 256; 512 ]
let thresh = 1

let schemes =
  [
    Sb_broadcast.Send_echo.scheme;
    Sb_broadcast.Dolev_strong.scheme;
    Sb_broadcast.Bracha.scheme;
    Sb_broadcast.Phase_king.scheme;
  ]

(* E17's closed forms for one honest single-sender session at t = 1:
   the round count is a protocol constant and the point-to-point
   message count a polynomial in n (E17's table matches them at
   n = 128, 256 and 512). *)
let expected (s : Sb_broadcast.Session.scheme) n =
  match s.Sb_broadcast.Session.scheme_name with
  | "send-echo" -> (2, n * (n + 1))
  | "dolev-strong" -> (2, n * n)
  | "bracha" -> (4, (2 * n * n) + n)
  | "phase-king" -> (5, (2 * n * n) + (3 * n))
  | name -> invalid_arg ("no closed form for " ^ name)

let k_ctx = Spans.kind "core.fresh_ctx"
let k_sim = Spans.kind "sim.run"
let k_pass = Spans.kind "pass"

type state = { sim : Layers.sim }

(* At n = 512 a session runs for seconds, so it also runs a
   calibration point every [calib_every] party steps, whose walls
   [offset] keeps out of the session's wall. *)
let calib_every = 64

let calibrated obs (p : Protocol.t) offset =
  let steps = ref 0 in
  {
    p with
    Protocol.make_party =
      (fun ctx ~rng ~id ~input ->
        let party = p.Protocol.make_party ctx ~rng ~id ~input in
        {
          party with
          Party.step =
            (fun ~round ~inbox ->
              incr steps;
              if !steps mod calib_every = 0 then offset := !offset +. Obs.calibrate ~chunks:1 obs;
              party.Party.step ~round ~inbox);
        });
  }

let run_case obs ~traced ~seed (s : Sb_broadcast.Session.scheme) n =
  let rng = Rng.create seed in
  let ctx =
    Spans.span k_ctx (fun () ->
        Ctx.make ~rng ~n ~thresh ~k:8 ~pool:(Envelope.Arena.create ()) ())
  in
  let protocol = Sb_broadcast.Parallel.single s in
  let protocol = if traced then Wrap.protocol Wrap.Substrate protocol else protocol in
  let adversary = Adversary.passive protocol in
  let adversary = if traced then Wrap.adversary adversary else adversary in
  let offset = ref 0.0 in
  let protocol = if !Obs.within && n >= 512 then calibrated obs protocol offset else protocol in
  let inputs = Array.init n (fun i -> Msg.Bit (i mod 2 = 0)) in
  Spans.new_session ();
  let t0 = Meas.now_ns () in
  let w0 = Meas.minor_words () in
  let r =
    Spans.span k_sim (fun () ->
        Network.run ctx ~rng ~protocol ~adversary ~inputs ~record_trace:false ~record_comm:true
          ~reuse_envelopes:true ())
  in
  (r, Meas.secs_since t0 -. !offset, Meas.minor_words () -. w0, inputs.(0), !offset)

let setup ~seed:_ =
  (* Warm-up: one small session per scheme. *)
  List.iter (fun s -> ignore (run_case (Obs.create ()) ~traced:false ~seed:1 s 32)) schemes;
  { sim = Layers.sim_create () }

let pass st (obs : Obs.t) ~traced ~drive:_ ~seed =
  Spans.span k_pass (fun () ->
      List.iteri
        (fun si s ->
          List.iter
            (fun n ->
              let t0 = Meas.now_ns () and from = Obs.points obs in
              let r, wall, words, sent, offset = run_case obs ~traced ~seed:(Meas.derive seed [ si; n ]) s n in
              let c = Option.get r.Network.comm in
              let rounds, p2p = expected s n in
              let decided = List.for_all (fun (_, m) -> Msg.equal m sent) r.Network.outputs in
              if not decided then
                Obs.fail obs 1
                  (Printf.sprintf "%s n=%d: an honest party did not decide the sender's bit"
                     s.Sb_broadcast.Session.scheme_name n);
              if r.Network.rounds_used <> rounds || r.Network.p2p_messages <> p2p then
                Obs.fail obs 1
                  (Printf.sprintf "%s n=%d: %d rounds and %d messages, the closed forms give %d and %d"
                     s.Sb_broadcast.Session.scheme_name n r.Network.rounds_used r.Network.p2p_messages
                     rounds p2p);
              Layers.sim_add st.sim r words;
              Obs.add obs (Printf.sprintf "%s/%d" s.Sb_broadcast.Session.scheme_name n) ~from ~executions:1 ~inner_s:wall ~sessions:1 ~outer_s:(Meas.secs_since t0 -. offset)
                ~deliveries:c.Network.deliveries ~states:r.Network.rounds_used ~walls:[| wall |] ();
              obs.Obs.ops <- obs.Obs.ops + c.Network.deliveries;
              obs.Obs.attempted <- obs.Obs.attempted + 1;
              Obs.add_exact obs "large_n.deliveries" c.Network.deliveries;
              Obs.add_exact obs "large_n.p2p" r.Network.p2p_messages;
              Obs.add_exact obs "large_n.bytes" (c.Network.broadcast_bytes + c.Network.p2p_bytes);
              ignore (Obs.calibrate obs))
            ns)
        schemes)

let layers st =
  [
    ("core.fresh_ctx_us", Layers.ratio (Spans.total_s k_ctx *. 1e6) (Spans.count k_ctx));
    ("core.fresh_ctx_per_session", Layers.ratio (float_of_int (Spans.count k_ctx)) (Spans.count k_sim));
  ]
  @ Layers.sim_metrics st.sim k_sim
