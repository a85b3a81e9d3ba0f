(* check-n5: Sb_check.Checker.check at n = 5 on send-echo,
   dolev-strong, eig and bracha at t in {1, 2}, and phase-king at
   t = 1 (at t = 2 it exhausts the 200k-state budget after about a
   minute). The eig and bracha validity violations at t = 2 make
   witness search and minimisation run.

   sb_check's own copy of the round pipeline (Exec) runs in no other
   workload. Every witness is replayed: its fault plan, compiled by
   Sb_fault.Inject, drives a composed Network.run of the same
   substrate, which must show the violation again. *)

open Sb_util
open Sb_sim
module C = Sb_check.Checker

let n = 5

(* Expected verdicts (agreement, validity, unforgeability), as the
   checker settles them over the whole reachable space. *)
let cells =
  [
    ("send-echo", 1, ("pass", "pass", "pass"));
    ("send-echo", 2, ("pass", "pass", "pass"));
    ("dolev-strong", 1, ("pass", "pass", "pass"));
    ("dolev-strong", 2, ("pass", "pass", "pass"));
    ("eig", 1, ("pass", "pass", "pass"));
    ("eig", 2, ("pass", "violated", "pass"));
    ("bracha", 1, ("pass", "pass", "pass"));
    ("bracha", 2, ("pass", "violated", "pass"));
    ("phase-king", 1, ("pass", "pass", "pass"));
  ]

let k_check = Spans.kind "check.run"
let k_ctx = Spans.kind "core.fresh_ctx"
let k_sim = Spans.kind "sim.run"
let k_replay = Spans.kind "check.witness_replay"
let k_pass = Spans.kind "pass"

type state = {
  sim : Layers.sim;
  mutable explored : int;
  mutable memo_hits : int;
  mutable terminals : int;
  mutable replays : int;
  mutable replay_s : float;
}

let scheme_exn name =
  match C.find_scheme name with Some s -> s | None -> invalid_arg ("unknown scheme " ^ name)

let ctx_for ~seed t =
  let setup = { Core.Setup.default with Core.Setup.n; thresh = t; seed } in
  Spans.span k_ctx (fun () -> Core.Setup.fresh_ctx setup (Rng.create seed))

(* Coordinate [sender] of every non-faulty party's composed output. *)
let honest_views (w : C.witness) (r : Network.result) =
  List.filter_map
    (fun (i, m) ->
      if Subset.mem i w.C.w_faulty then None
      else
        match m with
        | Msg.List l when List.length l = n -> Some (List.nth l w.C.w_sender)
        | _ -> Some Msg.Unit)
    r.Network.outputs

let reproduces (w : C.witness) views =
  match w.C.w_property with
  | C.Agreement -> (
      match views with v :: rest -> List.exists (fun u -> not (Msg.equal u v)) rest | [] -> false)
  | C.Validity ->
      (not (Subset.mem w.C.w_sender w.C.w_faulty))
      && List.exists (fun v -> not (Msg.equal v w.C.w_value)) views
  | C.Unforgeability ->
      List.exists (fun v -> not (Msg.equal v w.C.w_value || Msg.equal v (Msg.Bit false))) views

(* Replays a witness through the real network: the composed substrate,
   the witness's inputs, and its fault plan compiled by Sb_fault.Inject. *)
let replay st ~traced ~seed scheme t (w : C.witness) =
  let ctx = ctx_for ~seed t in
  let protocol = Sb_broadcast.Parallel.concurrent scheme in
  let protocol = if traced then Wrap.protocol Wrap.Substrate protocol else protocol in
  let adversary = Adversary.passive protocol in
  let adversary = if traced then Wrap.adversary adversary else adversary in
  let bits = C.witness_inputs ~n w in
  let inputs = Array.init n (fun i -> Msg.Bit (bits.[i] = '1')) in
  let make = Sb_fault.Inject.compile ~n (C.plan_of_witness w) in
  let faults = if traced then Wrap.faults make else make in
  Spans.new_session ();
  let t0 = Meas.now_ns () in
  let w0 = Meas.minor_words () in
  let r =
    Spans.span k_replay (fun () ->
        Spans.span k_sim (fun () ->
            Network.run ctx ~rng:(Rng.create seed) ~protocol ~adversary ~inputs ~faults
              ~record_trace:false ~record_comm:true ()))
  in
  Layers.sim_add st.sim r (Meas.minor_words () -. w0);
  let wall = Meas.secs_since t0 in
  if !Layers.counting then begin
    st.replays <- st.replays + 1;
    st.replay_s <- st.replay_s +. wall
  end;
  (r, wall, reproduces w (honest_views w r))

(* Records the start of every replay the checker makes: Exec builds
   the session afresh, party 0 first, for every state it expands, so
   the gaps between these stamps are the per-state walls. It also
   counts the envelopes the checker delivers to the parties, and every
   [calib_every] states it runs a calibration point, whose wall
   [offset] keeps out of the stamps. *)
let calib_every = 1000

let stamped obs (s : Sb_broadcast.Session.scheme) stamps offset delivered =
  {
    s with
    Sb_broadcast.Session.create =
      (fun ctx ~rng ~sid ~sender ~me ~value ->
        if me = 0 then begin
          if !Obs.within && stamps.Meas.Floats.len > 0 && stamps.Meas.Floats.len mod calib_every = 0 then
            offset := !offset +. Obs.calibrate ~chunks:1 obs;
          Meas.Floats.add stamps (float_of_int (Meas.now_ns ()) -. (!offset *. 1e9))
        end;
        let t = s.Sb_broadcast.Session.create ctx ~rng ~sid ~sender ~me ~value in
        {
          t with
          Sb_broadcast.Session.step =
            (fun ~round ~inbox ->
              delivered := !delivered + List.length inbox;
              t.Sb_broadcast.Session.step ~round ~inbox);
        });
  }

let setup ~seed:_ =
  (* Warm-up: the smallest cell, at n = 3. *)
  let setup = { Core.Setup.default with Core.Setup.n = 3; thresh = 1 } in
  ignore (C.check ~scheme:(scheme_exn "send-echo") (Core.Setup.fresh_ctx setup (Rng.create 1)));
  { sim = Layers.sim_create (); explored = 0; memo_hits = 0; terminals = 0; replays = 0; replay_s = 0.0 }

let pass st (obs : Obs.t) ~traced ~drive:_ ~seed =
  let replays = ref [] in
  Spans.span k_pass (fun () ->
      List.iteri
        (fun ci (name, t, (agreement, validity, unforgeability)) ->
          let cseed = Meas.derive seed [ ci ] in
          let scheme = scheme_exn name in
          let ctx = ctx_for ~seed:cseed t in
          let stamps = Meas.Floats.create () and offset = ref 0.0 and from = Obs.points obs in
          let delivered = ref 0 in
          Spans.new_session ();
          let t0 = Meas.now_ns () in
          let r =
            Spans.span k_check (fun () ->
                let scheme = if traced then Wrap.scheme scheme else scheme in
                C.check ~scheme:(stamped obs scheme stamps offset delivered) ctx)
          in
          let wall = Meas.secs_since t0 -. !offset in
          let s = r.C.stats in
          let got =
            (C.verdict_name r.C.agreement, C.verdict_name r.C.validity, C.verdict_name r.C.unforgeability)
          in
          if got <> (agreement, validity, unforgeability) then begin
            let a, v, u = got in
            Obs.fail obs 1 (Printf.sprintf "%s 5/%d: verdicts %s/%s/%s" name t a v u)
          end;
          List.iter
            (function
              | C.Violated w -> replays := (name, t, scheme, w) :: !replays
              | C.Holds | C.Inconclusive -> ())
            [ r.C.agreement; r.C.validity; r.C.unforgeability ];
          Obs.add obs (Printf.sprintf "%s/%d" name t) ~from ~executions:s.C.terminals ~inner_s:wall ~sessions:1 ~outer_s:wall
            ~deliveries:!delivered ~states:s.C.explored ~walls:(Obs.gaps (Meas.Floats.to_array stamps)) ();
          obs.Obs.ops <- obs.Obs.ops + s.C.explored;
          obs.Obs.attempted <- obs.Obs.attempted + 1;
          Obs.add_exact obs "check.explored" s.C.explored;
          Obs.add_exact obs "check.memo_hits" s.C.memo_hits;
          Obs.add_exact obs "check.terminals" s.C.terminals;
          Obs.add_exact obs "check.deliveries" !delivered;
          if !Layers.counting then begin
            st.explored <- st.explored + s.C.explored;
            st.memo_hits <- st.memo_hits + s.C.memo_hits;
            st.terminals <- st.terminals + s.C.terminals
          end;
          ignore (Obs.calibrate obs))
        cells;
      (* Every witness must replay to its violation through the real
         network. *)
      List.iter
        (fun (name, t, scheme, w) ->
          let _, _, ok = replay st ~traced ~seed:(Meas.derive seed [ t ]) scheme t w in
          if not ok then
            Obs.fail obs 1
              (Printf.sprintf "%s 5/%d: the %s witness does not replay" name t
                 (C.property_name w.C.w_property)))
        !replays)

let layers st =
  let explored = st.explored in
  [
    ("core.fresh_ctx_us", Layers.ratio (Spans.total_s k_ctx *. 1e6) (Spans.count k_ctx));
    ("check.explored", float_of_int explored);
    ("check.memo_hits", float_of_int st.memo_hits);
    ( "check.memo_hit_ratio",
      Layers.ratio (float_of_int st.memo_hits) (explored + st.memo_hits) );
    ("check.terminals", float_of_int st.terminals);
    ("check.us_per_state", Layers.ratio (Spans.total_s k_check *. 1e6) explored);
    ("check.witness_replay_ms", Layers.ratio (st.replay_s *. 1e3) st.replays);
  ]
  @ Layers.sim_metrics st.sim k_sim
