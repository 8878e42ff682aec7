(** Transports for {!Server}, layer 4 of [lib/serve]: the server side
    of the file descriptors ({!Client} is the other side). One request line in, one response
    line out ({!Protocol} framing); lines that do not decode are
    answered with an [invalid_request] error reply rather than dropped,
    so a client always gets exactly one response per line sent.

    Replies are written by whichever thread the server invokes the
    callback on, serialized per output channel by an internal lock, and
    flushed per line — interleaving across in-flight requests is
    expected, clients correlate by id. *)

val serve_channels : Server.t -> in_channel -> out_channel -> unit
(** The stdin/stdout frontend: read request lines until EOF, then wait
    for every outstanding reply on this channel pair before returning
    (the server itself is left running — the caller decides when to
    {!Server.drain}). *)

val listen_unix : ?backlog:int -> Server.t -> path:string -> unit
(** Bind a Unix-domain stream socket at [path] (unlinking any stale
    socket file first) and serve forever: one lightweight thread per
    connection, each running the {!serve_channels} loop. Never returns
    normally — the daemon is stopped by killing the process; raises
    [Unix.Unix_error] if the socket cannot be bound. *)
