(** The Unix-socket client for a running [serve --socket] daemon: one
    connection per call, one request line out, one reply line back,
    every step bounded by the caller's deadline. [request --socket] is
    its caller.

    Transport failures are typed: {!Timeout} (no complete reply in
    time), {!Connection} (nobody listening, write failure, EOF) and
    {!Garbled} (a reply that does not decode or answers another id). *)

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to ignore for this process (idempotent, no-op where
    unsupported), so writes to a dead peer raise [EPIPE] and become
    typed {!Connection} errors instead of killing the process. Runs
    once at module load; the {!Frontend} accept loops also call it
    explicitly, so a client hanging up mid-reply never kills the
    daemon. *)

type error =
  | Timeout  (** no complete reply line within the caller's deadline *)
  | Connection of string  (** connect/write/EOF-level failure *)
  | Garbled of string  (** reply line undecodable or for the wrong id *)

val error_to_string : error -> string

val call_once :
  socket:string ->
  timeout_s:float ->
  Protocol.request ->
  (Protocol.response, error) result
(** Connect (failing fast with [Connection] if nobody listens), send,
    await one reply under [timeout_s], close. *)
