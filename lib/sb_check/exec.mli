(** Deterministic single-session executor for the model checker.

    One broadcast session — one sender, one value, n parties driven as
    {!Sb_broadcast.Session.t} closures — is executed under an explicit
    per-round fault schedule. The round structure mirrors
    {!Sb_sim.Network.run} exactly (deliver → collect → intercept →
    route, with the final round delivery-only) and the fault semantics
    mirror {!Sb_fault.Inject.compile}: a crash silences all of the
    party's traffic from its crash round on, omissions and delays are
    all-or-nothing for the round — the clean benign-fault granularity,
    [drop:1:p->*\@r] / [delay:1:p->*\@r] — acting only on
    distinct-endpoint point-to-point envelopes, and delayed envelopes
    re-enter the queue ahead of that round's fresh traffic.
    A terminal state reached here therefore agrees with a composed
    [Network.run] execution of the same session under the compiled
    {!Checker.plan_of_witness} fault plan — the counterexample
    round-trip tests pin this down.

    States are identified across paths by a canonical digest over the
    per-party inbox histories, the crash pattern, and the in-flight
    queue (delivered and held envelopes). The search is root/child
    shaped: {!root} is the state before round 0, and {!child} extends
    a state by one round's decision. Sessions are mutable closures and
    cannot be snapshotted, so [child] rebuilds them and re-steps the
    parent's prefix with the same inboxes; but it keys nothing there.
    Its digest is incremental: a snapshot carries the per-party history
    digests after its [Mid] round's deliveries and the envelope keys of
    its [Mid] queue (serialised at most once, shared by every child),
    so a child keys only its new queue and any held envelopes. The
    bytes digested are those of a from-scratch replay. *)

type action =
  | Crash  (** halt: all traffic from this round on is suppressed *)
  | Omit  (** drop all of this round's point-to-point sends *)
  | Delay  (** hold all of this round's point-to-point sends one round *)

type decision = (int * action) list
(** One round's adversarial choice: the faulty parties that deviate
    this round, ascending by party id. Absent parties act healthily.
    A decision list shorter than {!total_rounds} stops [Mid], at the
    first undecided round — pad with [[]] (healthy rounds) to drive a
    partial schedule to termination. *)

type config = {
  ctx : Sb_sim.Ctx.t;
  scheme : Sb_broadcast.Session.scheme;
  sender : int;
  value : Sb_sim.Msg.t;
  faulty : Sb_util.Subset.t;  (** the benign-faulty set B; |B| <= ctx.thresh *)
}

type status =
  | Mid of Sb_sim.Envelope.t list
      (** the next undecided round's outgoing queue, as sent — a
          party's omit/delay options exist only when it has
          point-to-point traffic here *)
  | Terminal of Sb_sim.Msg.t array  (** per-party session results *)

type frontier
(** What a child needs from its parent: the history digests after the
    parent's [Mid] round and the lazily computed keys of its queue. *)

type snapshot = {
  digest : string;
  status : status;
  decisions : decision list;  (** the prefix that reached this state *)
  frontier : frontier;
}
(** The digest canonically identifies the reached state (it covers the
    round index, so equal states at different depths never alias); two
    equal digests within one [config] have identical futures. Crash
    flags are digested as booleans, and at the terminal the dead state
    (crash flags, never-deliverable held envelopes) is dropped, so
    schedules that converge — crash early vs. late around silent
    rounds, omit vs. delay of final-round traffic — share digests. *)

val total_rounds : config -> int
(** Number of decision slots: the scheme's send rounds. A decision
    list of exactly this length drives the session to [Terminal]. *)

val root : config -> snapshot
(** The state before round 0: nothing delivered, nothing decided. Its
    status is [Mid] with round 0's outgoing queue, or [Terminal] when
    the scheme has no send rounds. *)

val child : config -> snapshot -> decision -> snapshot
(** [child config parent d] is the state reached from [parent] (a
    snapshot of the same [config]) when round [List.length
    parent.decisions] is intercepted under [d].
    @raise Invalid_argument if [parent] is [Terminal]. *)

val replay : config -> decision list -> snapshot
(** [List.fold_left (child config) (root config)]: the state the
    decisions reach from round 0. The fold advances one live session
    set through the same per-round extension [child] uses, so every
    round is stepped once. @raise Invalid_argument if the list is
    longer than {!total_rounds}. *)

val crashed_before : decision list -> int -> bool
(** Whether party [i] has a [Crash] action anywhere in the prefix. *)
