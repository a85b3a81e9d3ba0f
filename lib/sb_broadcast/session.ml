type t = {
  step : round:int -> inbox:Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list;
  result : unit -> Sb_sim.Msg.t;
}

type scheme = {
  scheme_name : string;
  rounds : Sb_sim.Ctx.t -> int;
  create :
    Sb_sim.Ctx.t ->
    rng:Sb_util.Rng.t ->
    sid:string ->
    sender:int ->
    me:int ->
    value:Sb_sim.Msg.t option ->
    t;
}

let tag sid = "bc:" ^ sid
let wrap ~sid m = Sb_sim.Msg.Tag (tag sid, m)

(* [t] holds [s] at offset [off]. Top-level and first-order, so the
   tag tests below allocate nothing (the stdlib's [starts_with] and
   [ends_with] build a closure per call). *)
let rec equal_at t off s i =
  i = String.length s || (t.[off + i] = s.[i] && equal_at t off s (i + 1))

let has_tag_prefix ~sid t =
  String.length t >= 3 + String.length sid && equal_at t 0 "bc:" 0 && equal_at t 3 sid 0

let has_tag ~sid t = String.length t = 3 + String.length sid && has_tag_prefix ~sid t

let unwrap ~sid = function
  | Sb_sim.Msg.Tag (t, m) when has_tag ~sid t -> Some m
  | _ -> None

let inbox_for ~sid envs =
  List.filter
    (fun (e : Sb_sim.Envelope.t) ->
      match e.body with Sb_sim.Msg.Tag (t, _) -> has_tag ~sid t | _ -> false)
    envs
