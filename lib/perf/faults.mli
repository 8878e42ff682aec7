(** Seeded fault injection for measurement backends.

    A real deployment of the paper's environment measures schedules by
    compiling and running them on shared hardware: runs time out,
    compilations fail spuriously, timings carry heavy-tailed outliers
    and the harness occasionally hangs or dies. This module models
    those failure modes as a deterministic, replayable stream so the
    evaluator's measurement loop ({!Evaluator.measure}) and the
    training loop can be exercised — and regression-tested — against
    exact failure sequences. *)

type fault =
  | Transient_timeout  (** the run exceeded its time budget; retryable *)
  | Compile_failure  (** spurious toolchain failure; retryable *)
  | Latency_outlier of float
      (** multiplier applied to an otherwise-valid measurement *)
  | Hang of float
      (** the harness hung for this many seconds before being killed *)
  | Crash  (** the measurement process died *)

type config = {
  transient_timeout_prob : float;
  compile_failure_prob : float;
  outlier_prob : float;
  outlier_scale : float;
      (** tail weight of the Pareto outlier multiplier (0 disables) *)
  hang_prob : float;
  hang_seconds : float;  (** mean hang duration before the cap *)
  crash_prob : float;
  crash_on_call : int option;
      (** deterministically crash exactly the n-th call (1-based), on
          top of the probabilistic faults — for exception-safety tests *)
}

val none : config
(** All probabilities zero: a perfectly reliable backend. *)

val flaky : ?rate:float -> unit -> config
(** A representative flaky backend. [rate] (default 0.1) is the total
    transient-failure probability, split 40/30/30 between timeouts,
    compile failures and hangs; latency outliers occur at [rate *. 0.5]
    on top (they do not fail the measurement, only distort it). *)

val validate : config -> (unit, string) result

type t
(** A fault injector: a fault stream positioned at some call count. *)

val create : ?config:config -> seed:int -> unit -> t
(** Raises [Invalid_argument] on an invalid config. Two injectors with
    the same config and seed produce identical fault sequences. *)

val config : t -> config
val calls : t -> int

val fork : t -> t
(** Same config, zero calls, a fresh stream the caller is expected to
    position with {!restore} — one injector per parallel episode. *)

val draw : t -> fault option
(** Advance the stream by one measurement attempt. [None] means the
    attempt proceeds unharmed. Consumes exactly two random draws per
    call regardless of outcome, so replays stay aligned. *)

val to_string : fault -> string

val state : t -> int64 * int
(** Stream state (rng, call count) for checkpointing. *)

val restore : t -> int64 * int -> unit
(** Reposition the stream at a state saved by {!state}. *)
