type fault =
  | Transient_timeout
  | Compile_failure
  | Latency_outlier of float
  | Hang of float
  | Crash

type config = {
  transient_timeout_prob : float;
  compile_failure_prob : float;
  outlier_prob : float;
  outlier_scale : float;
  hang_prob : float;
  hang_seconds : float;
  crash_prob : float;
  crash_on_call : int option;
}

let none =
  {
    transient_timeout_prob = 0.0;
    compile_failure_prob = 0.0;
    outlier_prob = 0.0;
    outlier_scale = 3.0;
    hang_prob = 0.0;
    hang_seconds = 30.0;
    crash_prob = 0.0;
    crash_on_call = None;
  }

let flaky ?(rate = 0.1) () =
  {
    none with
    transient_timeout_prob = rate *. 0.4;
    compile_failure_prob = rate *. 0.3;
    hang_prob = rate *. 0.3;
    outlier_prob = rate *. 0.5;
  }

let validate c =
  let probs =
    [
      ("transient_timeout_prob", c.transient_timeout_prob);
      ("compile_failure_prob", c.compile_failure_prob);
      ("outlier_prob", c.outlier_prob);
      ("hang_prob", c.hang_prob);
      ("crash_prob", c.crash_prob);
    ]
  in
  match List.find_opt (fun (_, p) -> p < 0.0 || p > 1.0) probs with
  | Some (name, _) -> Error (name ^ " must be in [0, 1]")
  | None ->
      let total =
        c.transient_timeout_prob +. c.compile_failure_prob +. c.outlier_prob
        +. c.hang_prob +. c.crash_prob
      in
      if total > 1.0 then Error "fault probabilities sum above 1"
      else if c.outlier_scale < 0.0 then Error "outlier_scale must be >= 0"
      else if c.hang_seconds < 0.0 then Error "hang_seconds must be >= 0"
      else Ok ()

type t = { config : config; rng : Util.Rng.t; mutable calls : int }

let create ?(config = none) ~seed () =
  (match validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Faults.create: " ^ e));
  { config; rng = Util.Rng.create seed; calls = 0 }

let config t = t.config
let calls t = t.calls

let fork t =
  (* Same fault mix, fresh stream position: parallel episodes each get
     their own deterministic fault sequence (the trainer seeds it from
     the episode's derived rng). [crash_on_call] counts per fork. *)
  { config = t.config; rng = Util.Rng.create 0; calls = 0 }

let draw t =
  t.calls <- t.calls + 1;
  (* Exactly two uniforms per call regardless of outcome, so the stream
     stays aligned and a replay with the same seed reproduces the exact
     fault sequence. *)
  let u = Util.Rng.uniform t.rng in
  let mag = Util.Rng.uniform t.rng in
  match t.config.crash_on_call with
  | Some n when t.calls = n -> Some Crash
  | _ ->
      let c = t.config in
      let t0 = c.crash_prob in
      let t1 = t0 +. c.transient_timeout_prob in
      let t2 = t1 +. c.compile_failure_prob in
      let t3 = t2 +. c.hang_prob in
      let t4 = t3 +. c.outlier_prob in
      if u < t0 then Some Crash
      else if u < t1 then Some Transient_timeout
      else if u < t2 then Some Compile_failure
      else if u < t3 then Some (Hang (c.hang_seconds *. (0.5 +. mag)))
      else if u < t4 then
        (* Pareto tail (alpha = 1.5): rare but heavy latency outliers. *)
        Some
          (Latency_outlier
             (1.0 +. (c.outlier_scale *. (((1.0 -. mag) ** (-2.0 /. 3.0)) -. 1.0))))
      else None

let to_string = function
  | Transient_timeout -> "transient-timeout"
  | Compile_failure -> "compile-failure"
  | Latency_outlier k -> Printf.sprintf "latency-outlier(x%.2f)" k
  | Hang s -> Printf.sprintf "hang(%.1fs)" s
  | Crash -> "crash"

let state t = (Util.Rng.state t.rng, t.calls)

let restore t (s, n) =
  Util.Rng.set_state t.rng s;
  t.calls <- n
