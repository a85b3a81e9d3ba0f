(** Execution transcript: everything that crossed the network.

    One record per round, split by origin. Experiments use traces for
    message-complexity counts (E8) and tests use them to assert rushing
    and visibility rules. *)

type round_record = {
  round : int;
  honest_sent : Envelope.t list;
  adv_sent : Envelope.t list;  (** after filtering to corrupted sources *)
  func_sent : Envelope.t list;
}

type t = round_record list
(** In round order. *)

(** {1 Traffic tally}

    The one counting rule behind every traffic figure the simulator
    reports ({!Network.result}'s [p2p_messages] and [comm], the
    [sim.broadcasts]/[sim.p2p]/[sim.bytes.*] counters, the counts
    below): functionality-bound envelopes are skipped, a broadcast is
    one channel use, and an envelope's size is {!Envelope.wire_size}. *)

type tally = private {
  sizing : bool;  (** whether {!add} sums wire bytes *)
  mutable broadcasts : int;
  mutable p2p : int;
  mutable broadcast_bytes : int;
  mutable p2p_bytes : int;
  mutable last_body : Msg.t;
  mutable last_size : int;
}

val tally : bytes:bool -> tally
(** A zeroed tally. With [~bytes:false] the byte fields stay [0] and
    no body is ever sized. *)

val add : tally -> Envelope.t list -> int
(** Fold one list of sent envelopes in, without allocating (a
    one-slot cache sizes a fan-out's shared body once); returns the
    list's length, functionality-bound envelopes included. *)

(** {1 Trace-side counts} *)

val p2p_message_count : t -> int
(** Party-to-party envelopes (functionality and broadcast traffic
    excluded). *)

val broadcast_count : t -> int
(** Envelopes sent on the broadcast channel. *)

val wire_bytes : t -> int * int
(** [(broadcast, p2p)] wire bytes of party-sourced traffic — the
    trace-side view of [sim.bytes.*] and [comm], used by experiment
    E16. *)

val messages_from : t -> int -> int

val per_round_counts : t -> (int * int * int) list
(** Per round, [(honest, adversary, functionality)] envelope counts —
    the raw series behind the observability layer's per-round
    counters. *)

val pp : Format.formatter -> t -> unit
