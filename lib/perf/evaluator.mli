(** Timing oracle over schedule states.

    The environment's stand-in for "compile and run": price a schedule
    state with the cost model, compute speedups against the untransformed
    op and enforce the paper's adaptive timeout (10x the base time maps
    to a capped, penalized measurement).

    With a {!Faults} injector attached, {!measure} follows the paper's
    discipline for real, unreliable executions:
    - {b adaptive repeats}: at least 3 runs, and up to 9 until the
      relative standard deviation drops to 5%, aggregated by median;
    - {b bounded retries}: transient failures (timeouts, compile
      failures, hangs capped at 60 s, crashes) are retried up to
      {!max_retries} times with exponential backoff (1 s, x2), every
      pause charged to the simulated measurement clock;
    - {b graceful degradation}: when retries are exhausted the result
      falls back to the pure cost-model estimate and is flagged
      [Degraded], so training can track how much of its signal was
      synthetic. *)

type t
(** An evaluator bound to a machine; caches base times per op and
    pre-jitter state times per nest digest (the transposition cache). *)

val create :
  ?machine:Machine.t ->
  ?noise:float ->
  ?noise_seed:int ->
  ?cache_capacity:int ->
  ?state_cache_capacity:int ->
  ?measure_delay_s:float ->
  ?faults:Faults.t ->
  unit ->
  t
(** Defaults to {!Machine.e5_2680_v4} and noiseless measurements.
    [noise] adds log-normal multiplicative jitter to every measurement
    (sigma of the log, e.g. 0.05 for ~5% timing noise) — real machines
    measure like this, and the paper's training signal carried such
    noise. Base times stay noiseless so speedups are jittered only
    through the measurement. [cache_capacity] bounds the base-time
    cache (default 4096 entries, FIFO eviction — an eviction only costs
    a recompute). [state_cache_capacity] bounds the state-seconds
    transposition cache, keyed by
    (nest digest, iter kinds, packing elements, machine); default
    65536 entries, [<= 0] disables it (the naive-reference mode the
    differential tests and benches compare against). The cache stores
    the pure pre-jitter cost-model value and jitter is applied after
    lookup, so results are bit-identical with the cache on or off.
    [measure_delay_s] emulates the hardware-measurement stall of a real
    deployment: every state-seconds computation (transposition-cache
    miss) sleeps that long before pricing, so parallel-search benches
    scale with how well the search overlaps measurement latency instead
    of with this host's core count (the serve engine sets it from its
    [measure_delay_s]). Cache hits stay instant and results are
    bit-identical with the delay on or off; 0 (off) by default.
    [faults] switches {!measure} to the repeat/retry/degrade loop
    described above; without it a measurement is one run. *)

val fork : t -> t
(** A worker-local evaluator for parallel rollouts: shares the (domain
    safe, sharded) base-time and state-seconds caches, copies machine
    and noise sigma, forks the fault injector ({!Faults.fork}), and
    starts zeroed {!counters} and a fresh jitter stream. The caller is
    expected to seed the jitter and fault streams via
    {!set_noise_state} / {!Faults.restore} and merge the fork's
    counters back with {!add_counters}. *)

val machine : t -> Machine.t

val noise : t -> float
(** The jitter sigma this evaluator was created with. *)

val faults : t -> Faults.t option
(** The attached fault injector, if any. *)

val base_seconds : t -> Linalg.t -> float
(** Estimated time of the op with no transformation (cached). *)

val state_seconds : t -> Sched_state.t -> float
(** Estimated time of the current transformed nest, including the im2col
    packing charge. Memoized through the transposition cache (keyed by
    {!Sched_state.digest}): a state whose nest was already priced — by
    this evaluator or any fork sharing its caches — skips the cost
    model entirely. [explored] still counts every call and jitter is
    still drawn per call, so traces and noise streams are unchanged.
    Never injected with faults: this is one run of the backend. *)

val timeout_factor : float
(** The paper's adaptive timeout: measurements above
    [timeout_factor *. base] are treated as timed out (10.0). *)

val min_repeats : int
(** Runs aggregated per measurement with a fault injector attached
    (3). *)

val max_retries : int
(** Failure retries per measurement before degrading (4). *)

type quality =
  | Exact  (** measured (one run, or enough repeats under faults) *)
  | Degraded of string
      (** fell back to the cost-model estimate (or a partial sample
          set) after the retries ran out; the payload says why *)

type measurement = {
  seconds : float;  (** measured time, capped at the adaptive timeout *)
  timed_out : bool;  (** exceeded [timeout_factor *. base] *)
  quality : quality;
  retries : int;  (** failures retried *)
  charged : float;
      (** simulated wall-clock consumed: run times (capped), hang time
          and backoff pauses — what the caller adds to its measurement
          budget *)
}

val measure : t -> Sched_state.t -> measurement
(** Price one schedule state against the adaptive timeout. Without a
    fault injector this is one {!state_seconds} run. With one it is the
    repeat/retry/degrade loop; it never raises — every failure mode
    ends in a retry, a timeout cap or a [Degraded] estimate. *)

val speedup : t -> Sched_state.t -> float
(** [base /. (measure t state).seconds], so a timeout yields
    [1. /. timeout_factor]. Always strictly positive. *)

val schedule_speedup : t -> Linalg.t -> Schedule.t -> (float, string) result
(** Apply a whole schedule and return its speedup. *)

type counters = {
  explored : int;
      (** {!state_seconds} runs — the "schedules explored" counter of
          the Figure 6 search-efficiency bench *)
  measurements : int;  (** {!measure} calls *)
  retries : int;  (** failure retries across all measurements *)
  degraded : int;  (** measurements flagged [Degraded] *)
}

val counters : t -> counters

val add_counters : t -> counters -> unit
(** Add a fork's counters (the in-order merge of parallel work). *)

val restore_counters : t -> counters -> unit
(** Overwrite the counters (checkpoint resume). *)

val noise_state : t -> int64
(** State of the jitter stream, for checkpointing. *)

val set_noise_state : t -> int64 -> unit
(** Restore a jitter stream saved by {!noise_state}. *)

type measure_hook = Sched_state.t -> seconds:float -> unit
(** A tap on the state-seconds computation: receives the schedule state
    and the pure, pre-jitter cost-model seconds. *)

val set_measure_hook : t -> measure_hook option -> unit
(** Install (or clear) the measurement tap. The hook fires inside the
    transposition-cache miss path, so with the cache on it runs once
    per distinct (digest, iter kinds, packing, machine) key — the
    surrogate dataset logger gets a deduplicated stream for free. It
    must be fast and, if the evaluator is forked across domains,
    thread-safe; it never observes jitter and never perturbs the noise
    stream, so installing it is bit-invisible to all consumers. Forks
    inherit the hook. *)

val attach_surrogate_cache : t -> (unit -> Util.Sharded_cache.stats) -> unit
(** Attach a surrogate ranker's prediction-cache stats so its counters
    appear in {!cache_stats} (and hence CLI stderr stats, serve
    [/stats] and Prometheus) alongside the base/state caches. Takes a
    closure, not the cache, so rankers may key their cache however they
    like. Purely observational: the evaluator never touches the cache. *)

type cache_stats = {
  base : Util.Sharded_cache.stats;  (** base-time cache, keyed by op *)
  state : Util.Sharded_cache.stats option;
      (** state-seconds transposition cache; [None] when disabled *)
  surrogate : Util.Sharded_cache.stats option;
      (** attached surrogate prediction cache; [None] unless a ranker
          called {!attach_surrogate_cache} *)
}

val cache_stats : t -> cache_stats
(** Hit/miss/eviction counters of the caches. Forks share the caches,
    so the counters aggregate across all of them (and under parallel
    collection they depend on scheduling — report them on stderr or in
    metrics, never on determinism-checked stdout). *)

val cache_stats_groups :
  cache_stats -> (string * Util.Sharded_cache.stats) list
(** The present cache groups as [(tag, stats)] pairs, in fixed
    [base; state; surrogate] order — the single source every renderer
    (human, key=value, Prometheus) folds over. *)

val render_cache_stats : cache_stats -> string
(** One-line human-readable rendering of {!cache_stats} — what the CLI
    prints after [autoschedule]/[train] and serve exposes in stats. *)

val render_cache_kv : cache_stats -> string
(** [eval_<tag>_hits=N eval_<tag>_misses=N] pairs for each present
    cache, space-separated — the machine-readable form serve's
    [/stats] body embeds. *)
