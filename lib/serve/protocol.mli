(** The schedule-serving wire protocol, layer 1 of [lib/serve].

    Line-delimited and versioned: every message is one text line whose
    first token is the protocol tag [mrs1] ("mlir-rl serve, version 1"),
    followed by space-separated fields. String fields (request ids, op
    specs, textual IR, error messages) are percent-escaped so payloads
    may contain spaces, newlines and arbitrary bytes; everything else is
    plain ASCII. The format is deliberately greppable: a smoke test can
    assert ["^mrs1 r1 ok "] without a JSON parser.

    Decoding never raises — malformed input comes back as
    [Error reason], which frontends turn into an {!error_code}
    [Invalid_request] reply. Failures inside the server reuse the typed
    {!Env_error} vocabulary via [Env_failure].

    Requests:
    - [mrs1 ID optimize spec ESC-SPEC [DEADLINE-MS]] — optimize an op
      given as an {!Op_spec} string;
    - [mrs1 ID optimize ir ESC-IR [DEADLINE-MS]] — optimize a loop nest
      given as textual IR ({!Ir_parser} syntax);
    - [mrs1 ID stats] — compact [k=v] server statistics;
    - [mrs1 ID metrics] — full Prometheus text-format dump;
    - [mrs1 ID ping] — liveness probe.

    Responses:
    - [mrs1 ID ok ESC-SCHEDULE SPEEDUP POLICY-DIGEST] — the chosen
      schedule (printable {!Schedule} notation), its predicted speedup
      and the digest of the policy checkpoint that answered. Identical
      requests to one server instance produce byte-identical [ok] lines
      (greedy decoding is deterministic and the speedup is printed with
      round-trippable precision);
    - [mrs1 ID error CODE ESC-MESSAGE];
    - [mrs1 ID stats ESC-BODY] / [mrs1 ID metrics ESC-BODY];
    - [mrs1 ID pong]. *)

type target =
  | Spec of string  (** an {!Op_spec} string, e.g. ["matmul:64x64x64"] *)
  | Ir of string  (** a loop nest in the textual IR syntax *)

type request =
  | Optimize of { id : string; target : target; deadline_ms : int option }
      (** [deadline_ms] bounds queueing + service time; an admitted
          request that cannot start in time is answered with
          [Deadline_exceeded] instead of being served late. *)
  | Stats of { id : string }
  | Metrics of { id : string }
  | Ping of { id : string }

type error_code =
  | Parse_error  (** the op spec or IR payload did not parse *)
  | Invalid_request  (** the wire line itself was malformed *)
  | Unsupported
      (** parsed, but not servable: nest cannot be raised to a
          structured op, or exceeds the policy's N/D/L bounds *)
  | Overloaded  (** admission queue full — load was shed *)
  | Deadline_exceeded
  | Env_failure  (** the rollout failed; message carries the detail *)
  | Shutting_down  (** the server is draining and admits no new work *)

type reply = {
  r_id : string;
  schedule : string;  (** printable {!Schedule} notation *)
  speedup : float;  (** predicted speedup of the schedule *)
  policy_digest : string;  (** checkpoint digest the reply answers with *)
}

type response =
  | Ok_reply of reply
  | Error_reply of { e_id : string; code : error_code; message : string }
  | Stats_reply of { s_id : string; body : string }
  | Metrics_reply of { m_id : string; body : string }
  | Pong of { p_id : string }

val version : int
(** 1. Bumps when the line grammar changes; the tag token is
    ["mrs" ^ string_of_int version]. *)

val request_id : request -> string
val response_id : response -> string

val error_code_to_string : error_code -> string
(** Stable lower-snake names, e.g. ["deadline_exceeded"]. *)

val error_code_of_string : string -> error_code option

val escape : string -> string
(** Percent-escape ['%'], space, TAB, CR and LF (the characters that
    would break line/token framing). Total and injective. *)

val unescape : string -> (string, string) result
(** Inverse of {!escape}; rejects truncated or non-hex [%] sequences. *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result
(** Total: never raises, rejects unknown tags/verbs, bad escapes, bad
    deadlines and trailing garbage with a descriptive message. *)

val encode_response : response -> string

val decode_response : string -> (response, string) result
(** Total, like {!decode_request}. [decode_response (encode_response r)]
    is [Ok r]; speedups are printed with 17 significant digits so the
    float round-trips exactly. *)
