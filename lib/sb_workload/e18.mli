(** E18: the work-stealing scheduler on a heavy-tailed session mix.

    Runs a two-protocol batch (6 quick / 24 full 20-party Dolev-Strong
    sessions among 600 / 2000 5-party Bracha votes), measures every
    session's wall clock on one worker, and greedy-list-schedules the
    per-shard costs of the {!Sb_session.Shard.Static} and
    {!Sb_session.Shard.Steal} layouts onto 4 modeled workers. Gates:
    all sessions consistent, steal outcomes byte-pinned to the static
    engine's, the steal layout strictly finer, and the modeled
    4-worker makespan at least 1.5× faster than static. Real pooled
    4-domain walls, steal counts and worker utilization are reported
    as notes and via the [sched.*] metrics, but not gated — on an
    oversubscribed CI host they measure the OS scheduler, not ours.

    Lives here rather than in core because it needs [sb_session];
    front ends call {!register} at startup to add it to
    {!Core.Experiments.catalogue}. *)

val run : Core.Setup.t -> Core.Experiments.outcome
(** Quick tier when [setup.samples <= 2000], like E17. *)

val entry : Core.Experiments.entry

val register : unit -> unit
(** Idempotently add {!entry} to the experiments catalogue. *)
