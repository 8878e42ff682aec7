(* The one-shot Unix-socket client behind [request --socket]. All
   socket I/O is done with [Unix.select] + raw reads against an
   explicit deadline — never buffered channels — so a dead or wedged
   daemon is a typed [Error Timeout] decided by our clock, not a
   Sys_error fished out of errno, and never a hang. *)

(* Writing to a peer that died must raise EPIPE and flow into the
   typed error handling below — the default SIGPIPE action would kill
   the whole process instead. The daemon's accept loops rely on this
   too: a client that hangs up mid-reply must not kill the server. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let () = ignore_sigpipe ()

type error =
  | Timeout
  | Connection of string
  | Garbled of string

let error_to_string = function
  | Timeout -> "timeout"
  | Connection m -> "connection: " ^ m
  | Garbled m -> "garbled: " ^ m

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Ok fd
  with
  | Unix.Unix_error (e, _, _) ->
      close_fd fd;
      Error (Connection (Unix.error_message e))
  | exn ->
      close_fd fd;
      Error (Connection (Printexc.to_string exn))

(* Write one protocol line, never blocking past [deadline]: a stalled
   peer (a wedged daemon with a full socket buffer) must surface as
   [Error Timeout], not block the caller indefinitely. Each write is
   preceded by a writability select against the remaining budget; a
   blocking write after a positive select transfers at least one byte
   without blocking (the socket belongs to this one call, so no other
   thread competes for the buffer space select saw). A dead peer
   raises EPIPE/ECONNRESET immediately (SIGPIPE is ignored above). *)
let write_line fd line ~deadline =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then Ok ()
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Error Timeout
      else
        match Unix.select [] [ fd ] [] remaining with
        | _, [], _ -> Error Timeout
        | _ -> (
            match Unix.write_substring fd data off (len - off) with
            | n -> go (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                go off
            | exception Unix.Unix_error (e, _, _) ->
                Error (Connection (Unix.error_message e)))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read until '\n' or [deadline] (absolute, Unix.gettimeofday clock).
   The call is one-shot, so bytes after the newline are dropped. *)
let read_line fd ~deadline =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> Ok (String.sub s 0 i)
    | None -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error Timeout
        else
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> Error Timeout
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> Error (Connection "peer closed the connection")
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Connection (Unix.error_message e)))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let round_trip fd req ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  match write_line fd (Protocol.encode_request req) ~deadline with
  | Error _ as e -> e
  | Ok () -> (
      match read_line fd ~deadline with
      | Error _ as e -> e
      | Ok line -> (
          match Protocol.decode_response line with
          | Error e -> Error (Garbled e)
          | Ok resp ->
              if Protocol.response_id resp = Protocol.request_id req then
                Ok resp
              else
                Error
                  (Garbled
                     (Printf.sprintf "reply id %S for request id %S"
                        (Protocol.response_id resp)
                        (Protocol.request_id req)))))

let call_once ~socket ~timeout_s req =
  match connect_fd socket with
  | Error _ as e -> e
  | Ok fd ->
      let r = round_trip fd req ~timeout_s in
      close_fd fd;
      r
