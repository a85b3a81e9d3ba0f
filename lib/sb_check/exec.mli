(** Deterministic single-session executor for the model checker.

    One broadcast session ({!single_session}) runs under an explicit
    per-round fault schedule. Its rounds go through {!Sb_sim.Round},
    the kernel {!Sb_sim.Network.run} steps too, so the round order —
    step on this round's mailboxes, intercept, route; the final round
    delivery-only — exists once. What stays here is the checker's own.
    The decision filter mirrors {!Sb_fault.Inject.compile}: a crash
    silences all of the party's traffic from its crash round on;
    omissions and delays are all-or-nothing for the round, as in
    [drop:1:p->*\@r] / [delay:1:p->*\@r], act only on links
    ({!Sb_sim.Envelope.is_link}), and delayed envelopes re-enter the
    queue ahead of the next round's fresh traffic. So a terminal state
    agrees with [Network.run] on {!single_session} under the compiled
    {!Checker.plan_of_witness} plan; the round-trip tests pin this.

    States are identified across paths by a canonical digest over the
    per-party inbox histories, the crash pattern, and the in-flight
    queue (delivered and held envelopes). {!root} is the state before
    round 0; {!child} extends a state by one round's decision. Parties
    are mutable closures and cannot be snapshotted, so [child] builds
    all n afresh, party 0 first, on the routers of the root's kernel,
    and re-steps the parent's prefix, keying nothing there. Its digest
    is incremental: a snapshot carries the per-party history digests
    after its [Mid] round and the keys of its [Mid] queue (serialised
    at most once, shared by every child), so a child keys only its new
    queue and any held envelopes — the bytes a from-scratch replay
    digests. *)

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
    parent's [Mid] round, the lazily computed keys of its queue, and
    the round kernel shared by every state of the root's search. *)

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

val single_session :
  Sb_broadcast.Session.scheme -> sender:int -> value:Sb_sim.Msg.t -> Sb_sim.Protocol.t
(** One session of the scheme as a protocol: party [id] is the
    scheme's session for [me = id], holding [value] iff it is the
    sender. The executor steps exactly these parties; [Network.run]
    on it replays what the executor simulates. *)

val crashed_before : decision list -> int -> bool
(** Whether party [i] has a [Crash] action anywhere in the prefix. *)
