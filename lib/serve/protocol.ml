let version = 1

let tag = "mrs" ^ string_of_int version

type target = Spec of string | Ir of string

type request =
  | Optimize of { id : string; target : target; deadline_ms : int option }
  | Stats of { id : string }
  | Metrics of { id : string }
  | Ping of { id : string }

type error_code =
  | Parse_error
  | Invalid_request
  | Unsupported
  | Overloaded
  | Deadline_exceeded
  | Env_failure
  | Shutting_down

type reply = {
  r_id : string;
  schedule : string;
  speedup : float;
  policy_digest : string;
}

type response =
  | Ok_reply of reply
  | Error_reply of { e_id : string; code : error_code; message : string }
  | Stats_reply of { s_id : string; body : string }
  | Metrics_reply of { m_id : string; body : string }
  | Pong of { p_id : string }

let request_id = function
  | Optimize { id; _ } | Stats { id } | Metrics { id } | Ping { id } -> id

let response_id = function
  | Ok_reply { r_id; _ } -> r_id
  | Error_reply { e_id; _ } -> e_id
  | Stats_reply { s_id; _ } -> s_id
  | Metrics_reply { m_id; _ } -> m_id
  | Pong { p_id } -> p_id

let error_code_to_string = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unsupported -> "unsupported"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Env_failure -> "env_failure"
  | Shutting_down -> "shutting_down"

let error_code_of_string = function
  | "parse_error" -> Some Parse_error
  | "invalid_request" -> Some Invalid_request
  | "unsupported" -> Some Unsupported
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "env_failure" -> Some Env_failure
  | "shutting_down" -> Some Shutting_down
  | _ -> None

(* -- escaping --------------------------------------------------------- *)

let must_escape c = c = '%' || c = ' ' || c = '\t' || c = '\r' || c = '\n'

let escape s =
  if not (String.exists must_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if must_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] <> '%' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else if i + 2 >= n then Error "truncated % escape"
    else
      match (hex_val s.[i + 1], hex_val s.[i + 2]) with
      | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
      | _ -> Error (Printf.sprintf "bad %% escape %%%c%c" s.[i + 1] s.[i + 2])
  in
  go 0

(* -- tokenization ------------------------------------------------------

   Fields never contain raw spaces (escaping removes them), so splitting
   on every single space — keeping empty tokens — is unambiguous and
   preserves fields that escape to the empty string. *)

let tokens line = String.split_on_char ' ' line

let ( let* ) = Result.bind

(* Ids travel escaped like any other string field; an id that unescapes
   to the empty string is rejected so every reply can be correlated. *)
let decode_id raw =
  let* id = unescape raw in
  if String.length id = 0 then Error "empty request id" else Ok id

let decode_deadline = function
  | [] -> Ok None
  | [ d ] -> (
      match int_of_string_opt d with
      | Some ms when ms >= 0 -> Ok (Some ms)
      | Some _ -> Error "negative deadline"
      | None -> Error (Printf.sprintf "bad deadline %S" d))
  | _ -> Error "trailing tokens after deadline"

let encode_deadline = function
  | None -> ""
  | Some ms -> " " ^ string_of_int ms

let encode_request = function
  | Optimize { id; target; deadline_ms } ->
      let kind, payload =
        match target with Spec s -> ("spec", s) | Ir s -> ("ir", s)
      in
      Printf.sprintf "%s %s optimize %s %s%s" tag (escape id) kind
        (escape payload)
        (encode_deadline deadline_ms)
  | Stats { id } -> Printf.sprintf "%s %s stats" tag (escape id)
  | Metrics { id } -> Printf.sprintf "%s %s metrics" tag (escape id)
  | Ping { id } -> Printf.sprintf "%s %s ping" tag (escape id)

let decode_request line =
  match tokens line with
  | t :: _ when t <> tag -> Error (Printf.sprintf "unknown protocol tag %S" t)
  | [] | [ _ ] -> Error "missing request id"
  | _ :: raw_id :: rest -> (
      let* id = decode_id raw_id in
      match rest with
      | "optimize" :: kind :: payload :: rest ->
          let* target =
            match kind with
            | "spec" ->
                let* s = unescape payload in
                Ok (Spec s)
            | "ir" ->
                let* s = unescape payload in
                Ok (Ir s)
            | k -> Error (Printf.sprintf "unknown optimize target kind %S" k)
          in
          let* deadline_ms = decode_deadline rest in
          Ok (Optimize { id; target; deadline_ms })
      | [ "optimize" ] | [ "optimize"; _ ] ->
          Error "optimize needs a target kind and payload"
      | [ "stats" ] -> Ok (Stats { id })
      | [ "metrics" ] -> Ok (Metrics { id })
      | [ "ping" ] -> Ok (Ping { id })
      | verb :: _ -> Error (Printf.sprintf "unknown or malformed verb %S" verb)
      | [] -> Error "missing verb")

(* 17 significant digits round-trip any finite double exactly. *)
let float_to_wire f = Printf.sprintf "%.17g" f

let float_of_wire s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad float %S" s)

let encode_response = function
  | Ok_reply { r_id; schedule; speedup; policy_digest } ->
      Printf.sprintf "%s %s ok %s %s %s" tag (escape r_id) (escape schedule)
        (float_to_wire speedup) (escape policy_digest)
  | Error_reply { e_id; code; message } ->
      Printf.sprintf "%s %s error %s %s" tag (escape e_id)
        (error_code_to_string code) (escape message)
  | Stats_reply { s_id; body } ->
      Printf.sprintf "%s %s stats %s" tag (escape s_id) (escape body)
  | Metrics_reply { m_id; body } ->
      Printf.sprintf "%s %s metrics %s" tag (escape m_id) (escape body)
  | Pong { p_id } -> Printf.sprintf "%s %s pong" tag (escape p_id)

let decode_response line =
  match tokens line with
  | t :: _ when t <> tag -> Error (Printf.sprintf "unknown protocol tag %S" t)
  | [] | [ _ ] -> Error "missing response id"
  | _ :: raw_id :: rest -> (
      let* id = decode_id raw_id in
      match rest with
      | [ "ok"; sched; speedup; digest ] ->
          let* schedule = unescape sched in
          let* speedup = float_of_wire speedup in
          let* policy_digest = unescape digest in
          Ok (Ok_reply { r_id = id; schedule; speedup; policy_digest })
      | [ "error"; code; message ] -> (
          match error_code_of_string code with
          | Some code ->
              let* message = unescape message in
              Ok (Error_reply { e_id = id; code; message })
          | None -> Error (Printf.sprintf "unknown error code %S" code))
      | [ "stats"; body ] ->
          let* body = unescape body in
          Ok (Stats_reply { s_id = id; body })
      | [ "metrics"; body ] ->
          let* body = unescape body in
          Ok (Metrics_reply { m_id = id; body })
      | [ "pong" ] -> Ok (Pong { p_id = id })
      | verb :: _ -> Error (Printf.sprintf "unknown or malformed verb %S" verb)
      | [] -> Error "missing verb")
