(** Common shape of a single-sender broadcast sub-protocol instance.

    A session is one sender broadcasting one value to everybody. Its
    messages are wrapped in [Msg.Tag ("bc:" ^ sid, …)] so that many
    sessions — possibly of different broadcast protocols — can share
    the network simultaneously; [inbox_for] recovers the envelopes that
    belong to a given session.

    Local rounds start at 0 when the session starts; a session that
    begins at network round r0 maps network round r to local round
    r − r0. The driver (usually [Parallel]) is responsible for feeding
    every local round from 0 to [rounds] inclusive; [result] may be read
    afterwards. *)

type t = {
  step : round:int -> inbox:Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list;
      (** [round] is the LOCAL round. [inbox] must already be filtered
          to this session's envelopes. *)
  result : unit -> Sb_sim.Msg.t;
}

type scheme = {
  scheme_name : string;
  rounds : Sb_sim.Ctx.t -> int;
      (** Local send rounds; the session expects [step] calls for local
          rounds 0 … rounds (the last call is delivery-only). *)
  create :
    Sb_sim.Ctx.t ->
    rng:Sb_util.Rng.t ->
    sid:string ->
    sender:int ->
    me:int ->
    value:Sb_sim.Msg.t option ->
    t;
      (** [value] must be [Some v] iff [me = sender]. *)
}

val tag : string -> string
(** [tag sid] is the message tag used by session [sid]. *)

val has_tag : sid:string -> string -> bool
(** [has_tag ~sid t] is [String.equal t (tag sid)], computed without
    allocating; [unwrap] and [inbox_for] match tags with it. *)

val has_tag_prefix : sid:string -> string -> bool
(** [has_tag_prefix ~sid t] is [String.starts_with ~prefix:(tag sid) t],
    computed without allocating. *)

val wrap : sid:string -> Sb_sim.Msg.t -> Sb_sim.Msg.t
val unwrap : sid:string -> Sb_sim.Msg.t -> Sb_sim.Msg.t option

val inbox_for : sid:string -> Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list
(** Envelopes whose body carries this session's tag. *)
