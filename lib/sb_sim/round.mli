(** The round kernel: the part of a synchronous round with no metrics
    and no tracing, which {!Network.run} and the model checker's
    executor both step their rounds through. It owns the two
    {!Router}s that ping-pong across rounds: this round's mailboxes,
    and the staging router the next round's queue is routed into. The
    adversary, the functionality, fault interception and all
    accounting stay with the caller, between {!step} and {!route}. *)

type t

val create : cap:int -> int -> t
(** Empty mailboxes for parties [0 .. n-1], preallocated as in
    {!Router.create}. *)

val clear : t -> unit
(** Empty the mailboxes, keeping their capacity, to start another run. *)

val mailboxes : t -> Router.t
(** This round's deliveries. *)

val step : t -> round:int -> (int * Party.t) list -> Envelope.t list
(** Step each [(id, party)], in list order, on its mailbox; return the
    round's traffic as sent, in that order. Asserts that each party
    speaks only as itself (authenticated channels). *)

val route : t -> Envelope.t list -> replies:Envelope.t list -> unit
(** Route the queue minus its functionality-bound envelopes, then
    [replies], into the next round's mailboxes, and make them current. *)
