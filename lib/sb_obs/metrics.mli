(** Process-wide metrics registry: counters, gauges, and fixed-bucket
    histograms with streaming mean/p50/p95/max.

    Disabled by default. When disabled, [incr]/[set]/[observe] are a
    single boolean load — instrumented hot paths (the network round
    loop) cost nothing measurable. Handles are cheap to create and
    interned by name, so call sites may look metrics up on every use or
    cache the handle; both hit the same underlying cell.

    Nothing here draws randomness or perturbs caller state: enabling
    metrics cannot change the protocol outputs of a seeded run.

    Domain safety: counters and gauges are atomics, histograms take a
    per-histogram mutex per observation, and the name registry is
    mutex-guarded — worker domains of the sampling pool may update any
    metric concurrently and the aggregated totals are exact. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

val now_s : unit -> float
(** Monotonic clock ([Monotonic_clock.now]) in seconds from an
    arbitrary origin. Every timer in the libraries reads it, so no
    measured duration is ever negative. Works whether or not metrics
    are enabled. *)

type cost = {
  wall_s : float;  (** {!now_s} delta *)
  minor_words : float;  (** [Gc.minor_words] deltas, pool workers included *)
  major_words : float;
}

val measure : (unit -> 'a) -> 'a * cost
(** Run the thunk and return its result with its wall clock and the
    words it allocated: the calling domain's [Gc.minor_words] (minor)
    and [Gc.counters] (major) deltas plus
    the words {!Sb_par.Pool} tasks allocated on worker domains meanwhile
    ({!Sb_par.Pool.worker_words}), so the figure covers work the thunk
    fans out at any [--jobs]. Pool work started by other threads of
    control while the thunk runs is counted too. *)

val counter : string -> counter
(** Intern (create or look up) a counter by name. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing; an
    implicit +inf overflow bucket is appended. The default is a
    geometric ladder suited to microsecond durations
    (1, 2, 5, 10, ... 5e8). Bucket bounds are fixed at first creation:
    the first registration wins, and a later lookup with different
    bounds returns the existing histogram unchanged. *)

val observe : histogram -> float -> unit

type histogram_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  p50 : float;  (** bucket-interpolated estimate; [nan] when empty *)
  p95 : float;
}

val stats : histogram -> histogram_stats

val quantile : histogram -> float -> float
(** [quantile h q] for [0 <= q <= 1], linearly interpolated within the
    bucket where the cumulative count crosses [q]; clamped to the
    observed min/max so exact-bound data stays exact. *)

val reset : unit -> unit
(** Zero every registered metric (names and bucket layouts survive). *)

val to_table : unit -> Sb_util.Tabular.t
(** Render every registered metric, sorted by name. *)

val to_json : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with
    names sorted, for embedding in run reports. *)
