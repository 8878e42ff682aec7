(** The RL environment: Linalg op optimization as an episodic MDP.

    An episode starts from an untransformed op ({!reset}); each {!step}
    applies one transformation; the episode ends when the agent
    vectorizes (the paper's implicit stop action), when the schedule
    reaches tau steps, or when a measurement exceeds the adaptive
    timeout. Rewards are log speedups (§3.3): with [Immediate] reward the
    improvement of each step is measured and returned immediately; with
    [Final] reward all steps return 0 and the terminal step returns the
    log of the whole schedule's speedup.

    Failure handling is typed, not exceptional: stepping a finished
    episode, an IR-rejected transformation, or a measurement that had to
    degrade to the cost model all surface as {!Env_error.t} values in
    the {!step_result}, so a long training run survives every failure
    mode the backend can produce. *)

type t

type step_result = {
  obs : float array;
  reward : float;
  terminal : bool;
  timed_out : bool;  (** measurement exceeded the adaptive timeout *)
  noop : bool;  (** the action was an all-zero tiling (no effect) *)
  invalid : bool;  (** the transformation was rejected by the IR layer *)
  degraded : bool;
      (** the measurement backend failed and the reward was computed
          from the cost-model estimate (only with a fault injector
          attached to the evaluator) *)
  error : Env_error.t option;
      (** the typed error behind [invalid] / [degraded] / stepping a
          finished episode; [None] on the happy path *)
}

val create : ?evaluator:Evaluator.t -> Env_config.t -> t
(** The evaluator defaults to one on [config.machine]. An evaluator
    created with a fault injector makes every measurement repeat, retry
    and degrade (see {!Evaluator.measure}). *)

val fork : t -> t
(** A worker-local copy for parallel rollouts: the evaluator is forked
    ({!Evaluator.fork} — the caches are shared and domain-safe,
    noise/fault streams and counters are per-fork), episode state and
    accounting start fresh. The caller seeds the fork's streams and
    merges it back with {!absorb} in deterministic order. *)

val config : t -> Env_config.t
val evaluator : t -> Evaluator.t

val reset : t -> Linalg.t -> float array
(** Start an episode on an op; returns the initial observation. Resets
    the per-episode measurement accounting. *)

val state : t -> Sched_state.t
(** Current schedule state (for inspection and masking). Raises
    {!Env_error.Error} [No_episode] before the first {!reset}. *)

val state_opt : t -> Sched_state.t option
(** Non-raising variant of {!state}. *)

val masks : t -> Action_space.masks
(** Masks for the hierarchical policy at the current state. *)

val step_count : t -> int

val step : t -> Schedule.transformation option -> step_result
(** Apply one transformation ([None] is an explicit no-op that still
    consumes a step). Invalid transformations (rejected by the transform
    layer) consume a step and yield the timeout penalty with
    [error = Some (Invalid_action reason)], mirroring the paper's
    treatment of failing compilations. Stepping after the episode ended
    returns a terminal result with [error = Some Episode_over] instead
    of raising. Raises {!Env_error.Error} [No_episode] only when called
    before any {!reset}. *)

val step_hierarchical : t -> Action_space.hierarchical -> step_result
(** Convert a hierarchical action and step. *)

val current_speedup : t -> float
(** Speedup of the schedule built so far (1.0 right after reset). *)

val schedule : t -> Schedule.t

val measurement_seconds : t -> float
(** Accumulated simulated compile+measure wall-clock spent in this
    environment since creation — the paper's Figure 7 training-time
    axis. Each measurement charges [config.compile_seconds] plus the
    measured execution time (under faults: all repeats, capped hangs
    and backoff pauses). *)

val absorb : t -> t -> unit
(** [absorb t fork] adds a {!fork}'s measurement seconds and evaluator
    counters to [t]'s — the in-order merge of parallel episodes. *)

val restore_accounting :
  t -> measurement_seconds:float -> Evaluator.counters -> unit
(** Overwrite the measurement seconds and evaluator counters
    (checkpoint resume). *)

val render : t -> string
(** Human-readable snapshot of the episode: op, schedule so far, step
    count, current estimated time and speedup. For debugging and the
    CLI. *)
