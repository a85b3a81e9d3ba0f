(** A message in flight: sender, destination, body.

    Senders and destinations are either parties (by id), the trusted
    functionality slot, or — for destinations only — [All]: the
    regular (non-simultaneous) broadcast channel that the paper's
    model provides (§1, §4.1). A broadcast envelope is delivered
    identically to every party, so even a corrupted sender cannot
    equivocate over it; it offers no simultaneity, though: the rushing
    adversary still reads it before choosing the corrupted parties'
    same-round traffic.

    The network authenticates senders — a party cannot spoof another's
    [src] — matching the standard point-to-point model. *)

type endpoint = Party of int | Func | All

type t = { mutable src : endpoint; mutable dst : endpoint; mutable body : Msg.t }
(** Fields are mutable solely for {!Arena} recycling on the large-n
    hot path; treat envelopes as immutable values everywhere else.
    Structural equality and [{ e with ... }] behave exactly as they
    did when the fields were immutable. *)

val make : src:int -> dst:int -> Msg.t -> t
(** Party-to-party. *)

val broadcast : src:int -> Msg.t -> t
(** One envelope on the broadcast channel. *)

val to_func : src:int -> Msg.t -> t
val from_func : dst:int -> Msg.t -> t

val to_all : n:int -> src:int -> Msg.t -> t list
(** One copy to every party, including the sender itself (self-delivery
    keeps broadcast code uniform). *)

val to_others : n:int -> src:int -> Msg.t -> t list

val src_party : t -> int option

val src_is : t -> int -> bool
(** [src_is e i] = [src_party e = Some i] without allocating the
    option — used on the per-round authentication check. *)

val dst_party : t -> int option
val is_broadcast : t -> bool
val is_func_bound : t -> bool
val is_from_func : t -> bool

val is_link : t -> bool
(** Whether the envelope travels a faultable link: both endpoints are
    parties, and distinct. Self-delivery, the broadcast channel and the
    functionality channel are reliable; link faults touch only links. *)

val delivered_to : t -> int -> bool
(** Whether the envelope reaches party [i]'s inbox: direct address or
    broadcast. *)

val endpoint_size : endpoint -> int
(** Bytes of one rendered endpoint ("P<id>", "F" or "*") — the
    addressing-header component of {!wire_size}, exposed so callers
    that cache body sizes can still account headers per envelope. *)

val wire_size : t -> int
(** Bytes this envelope would occupy on a wire: the {!Msg.size_bytes}
    of the body plus a canonical addressing header (endpoints as
    rendered by {!pp}: ["P<id>"], ["F"], or ["*"]). A broadcast
    envelope is one channel use: its size counts once, not once per
    recipient — matching how [sim.broadcasts] counts messages. *)

val pp : Format.formatter -> t -> unit

(** Two-sided envelope arena for the large-n delivery path: records
    handed out at flip cycle [f] are recycled at cycle [f+2], giving
    every envelope exactly one full round of grace when
    {!Network.run} flips once per round under [~reuse_envelopes].
    Bodies stay immutable {!Msg.t} values; only the envelope records
    are recycled, so the arena must not be combined with trace
    recording, delay-fault queues, or adversaries that retain
    delivered envelopes across rounds ([Network.run] enforces the
    first two). *)
module Arena : sig
  type arena

  val create : unit -> arena

  val flip : arena -> unit
  (** Switch sides and reset the side flipped onto, handing its
      records back for reuse. *)

  val flips : arena -> int
  (** Number of flips performed — the generation counter: an envelope
      allocated at [flips = f] stays un-recycled until two further
      flips have happened. *)

  val make : arena -> src:int -> dst:int -> Msg.t -> t
  (** Party-to-party envelope drawn from the current side (the record
      is recycled, the fields are freshly set). *)

  val to_all : arena -> n:int -> src:int -> Msg.t -> t list
  (** Arena-backed {!Envelope.to_all}: same envelopes in the same
      order, drawn from the pool. *)
end
