(** Server metrics: counters and latency histograms, layer of [lib/serve]
    shared by the batcher, server and frontends.

    A {!t} is a small mutex-guarded registry, safe to update from worker
    domains and frontend threads. Histograms use logarithmic buckets
    (fixed ratio between consecutive upper bounds) so one 30-bucket
    histogram spans microseconds to minutes with bounded relative error,
    and quantile estimates never cost more than a bucket walk.

    Everything renders to the Prometheus text exposition format
    ({!render}) — scrapeable with [curl | grep] — and to a compact
    [k=v] line for the wire protocol's [stats] verb ({!stats_line}). *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> ?by:int -> string -> unit
(** Bump counter [name], creating it at 0 first. [by] defaults to 1. *)

val counter : t -> string -> int
(** Current value; 0 for a counter never bumped. *)

(** {1 Histograms}

    Observations are non-negative floats (seconds, batch sizes, ...).
    Buckets are [base * ratio^i]; values above the last bound land in a
    [+Inf] overflow bucket. *)

val observe : t -> string -> float -> unit

val hist_count : t -> string -> int
(** Number of observations; 0 for a histogram never observed. *)

val hist_sum : t -> string -> float

val quantile : t -> string -> float -> float option
(** [quantile t name q] (0 <= q <= 1) estimates the [q]-quantile as the
    upper bound of the bucket holding the [q]-th observation — an
    overestimate by at most the bucket ratio. [None] when empty. *)

(** {1 Rendering} *)

val render : t -> string
(** Prometheus text format. Counters as [# TYPE name counter] lines,
    histograms as cumulative [name_bucket{le="..."}] series with
    [_sum]/[_count]. Metric names are emitted in sorted order so output
    is reproducible. *)

val stats_line : t -> string
(** Compact single-line [k=v k=v ...] summary: every counter,
    plus [NAME_count], [NAME_sum] (and [NAME_p50]/[NAME_p99] as
    upper-bound estimates) per histogram. Sorted, space-separated. *)
