(* Traced copies of the closure records the libraries accept. Each
   wrapper times the call it forwards and changes nothing else: the
   wrapped record draws the same randomness and returns the same
   values, so a traced run computes what the untraced run computes. *)

open Sb_sim

let k_make = Spans.kind "party.make"
let k_output = Spans.kind "party.output"
let k_adv_init = Spans.kind "adversary.init"
let k_act = Spans.kind "adversary.act"
let k_func = Spans.kind "functionality.step"
let k_fault = Spans.kind "fault.intercept"

(* Party code is split by family, because each family leans on a
   different library: VSS protocols on sb_crypto, Pi_G over ideal
   Theta on the functionality, Pi_G over BGW Theta on sb_mpc, the
   broadcast substrates on sb_broadcast, commit-open on commitments. *)
type family = Vss | Ideal | Bgw | Substrate | Commit

let families = [ (Vss, "vss"); (Ideal, "ideal"); (Bgw, "bgw"); (Substrate, "substrate"); (Commit, "commit") ]
let family_name f = List.assoc f families
let k_step = List.map (fun (f, name) -> (f, Spans.kind ("party.step." ^ name))) families

let party family (p : Party.t) =
  let k = List.assoc family k_step in
  {
    Party.step = (fun ~round ~inbox -> Spans.span k (fun () -> p.Party.step ~round ~inbox));
    output = (fun () -> Spans.span k_output p.Party.output);
  }

let protocol family (p : Protocol.t) =
  {
    p with
    Protocol.make_party =
      (fun ctx ~rng ~id ~input ->
        party family (Spans.span k_make (fun () -> p.Protocol.make_party ctx ~rng ~id ~input)));
    make_functionality =
      Option.map
        (fun make ctx ~rng ->
          let f = make ctx ~rng in
          {
            Functionality.f_step =
              (fun ~round ~inbox -> Spans.span k_func (fun () -> f.Functionality.f_step ~round ~inbox));
          })
        p.Protocol.make_functionality;
  }

let adversary (a : Adversary.t) =
  {
    a with
    Adversary.init =
      (fun ctx ~rng ~corrupted ~inputs ~aux ->
        let s = Spans.span k_adv_init (fun () -> a.Adversary.init ctx ~rng ~corrupted ~inputs ~aux) in
        {
          Adversary.act = (fun view -> Spans.span k_act (fun () -> s.Adversary.act view));
          adv_output = s.Adversary.adv_output;
        });
  }

let faults (make : rng:Sb_util.Rng.t -> Network.interceptor) ~rng =
  let intercept = make ~rng in
  fun ~round envs -> Spans.span k_fault (fun () -> intercept ~round envs)

(* A single-sender scheme, for callers (the model checker) that take
   schemes rather than protocols. *)
let scheme (s : Sb_broadcast.Session.scheme) =
  let k = List.assoc Substrate k_step in
  {
    s with
    Sb_broadcast.Session.create =
      (fun ctx ~rng ~sid ~sender ~me ~value ->
        let t = Spans.span k_make (fun () -> s.Sb_broadcast.Session.create ctx ~rng ~sid ~sender ~me ~value) in
        {
          Sb_broadcast.Session.step =
            (fun ~round ~inbox -> Spans.span k (fun () -> t.Sb_broadcast.Session.step ~round ~inbox));
          result = (fun () -> Spans.span k_output t.Sb_broadcast.Session.result);
        });
  }
