type t = {
  cfg : Env_config.t;
  ev : Evaluator.t;
  mutable sched : Sched_state.t option;
  mutable steps : int;
  mutable finished : bool;  (* a terminal step_result has been returned *)
  mutable prev_seconds : float;  (* last measured time (Immediate mode) *)
  mutable last_obs : float array;
  mutable measurement_seconds : float;
}

type step_result = {
  obs : float array;
  reward : float;
  terminal : bool;
  timed_out : bool;
  noop : bool;
  invalid : bool;
  degraded : bool;
  error : Env_error.t option;
}

let create ?evaluator cfg =
  (match Env_config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Env.create: " ^ msg));
  (* The verifier/sanitizer switches are process-global (they must
     cover forked worker envs and the shared evaluator path), so a
     config asking for them turns them on for the process; a config
     with them off leaves whatever MLIR_RL_VERIFY / MLIR_RL_SANITIZE
     established untouched. *)
  if cfg.Env_config.verify_transforms then Verifier.set_enabled true;
  if cfg.Env_config.sanitize then Sanitizer.set_enabled true;
  let ev =
    match evaluator with
    | Some e -> e
    | None -> Evaluator.create ~machine:cfg.Env_config.machine ()
  in
  {
    cfg;
    ev;
    sched = None;
    steps = 0;
    finished = false;
    prev_seconds = 0.0;
    last_obs = [||];
    measurement_seconds = 0.0;
  }

let fork t =
  (* Worker-local environment for parallel episode collection: forked
     evaluator (shared caches, per-fork noise/fault streams and
     counters), fresh episode state and zeroed accounting. The trainer
     merges consumed episodes back into the primary environment with
     [absorb]. *)
  {
    cfg = t.cfg;
    ev = Evaluator.fork t.ev;
    sched = None;
    steps = 0;
    finished = false;
    prev_seconds = 0.0;
    last_obs = [||];
    measurement_seconds = 0.0;
  }

let config t = t.cfg
let evaluator t = t.ev

let state t =
  match t.sched with
  | Some s -> s
  | None -> raise (Env_error.Error Env_error.No_episode)

let state_opt t = t.sched

let reset t op =
  let s = Sched_state.init op in
  t.sched <- Some s;
  t.steps <- 0;
  t.finished <- false;
  t.prev_seconds <- Evaluator.base_seconds t.ev op;
  let obs = Observation.extract t.cfg s in
  t.last_obs <- obs;
  obs

let masks t = Action_space.masks t.cfg (state t)
let step_count t = t.steps

let charge_measurement t seconds =
  let total = t.cfg.Env_config.compile_seconds +. seconds in
  t.measurement_seconds <- t.measurement_seconds +. total

(* Price a state. Returns the (possibly capped) measurement plus the
   typed error when the backend had to degrade to the cost model. *)
let measure t s =
  let m = Evaluator.measure t.ev s in
  charge_measurement t m.Evaluator.charged;
  let error =
    match m.Evaluator.quality with
    | Evaluator.Exact -> None
    | Evaluator.Degraded detail ->
        Some
          (Env_error.Backend_failure
             {
               Env_error.op_name = s.Sched_state.original.Linalg.op_name;
               detail;
               retries = m.Evaluator.retries;
             })
  in
  (m, error)

let current_speedup t =
  match t.sched with
  | None -> 1.0
  | Some s ->
      let base = Evaluator.base_seconds t.ev s.Sched_state.original in
      let now = Evaluator.state_seconds t.ev s in
      base /. now

let schedule t = (state t).Sched_state.applied

let measurement_seconds t = t.measurement_seconds
let absorb t fork =
  t.measurement_seconds <- t.measurement_seconds +. fork.measurement_seconds;
  Evaluator.add_counters t.ev (Evaluator.counters fork.ev)

let restore_accounting t ~measurement_seconds counters =
  t.measurement_seconds <- measurement_seconds;
  Evaluator.restore_counters t.ev counters

let render t =
  match t.sched with
  | None -> "<no episode: call reset>"
  | Some s ->
      let base = Evaluator.base_seconds t.ev s.Sched_state.original in
      let now = Evaluator.state_seconds t.ev s in
      Format.asprintf
        "@[<v>op       : %s (%s)@,step     : %d/%d@,schedule : %s@,time     : %.6f s (base %.6f s)@,speedup  : %.2fx@,flags    : parallelized=%b vectorized=%b@]"
        s.Sched_state.original.Linalg.op_name
        (Linalg.kind_name s.Sched_state.original)
        t.steps t.cfg.Env_config.tau
        (match s.Sched_state.applied with
        | [] -> "<empty>"
        | applied -> Schedule.to_string applied)
        now base (base /. now) s.Sched_state.parallelized
        s.Sched_state.vectorized

let finish_result ?(degraded = false) ?error t s ~reward ~terminal ~timed_out
    ~noop ~invalid =
  let obs = Observation.extract t.cfg s in
  t.last_obs <- obs;
  if terminal then t.finished <- true;
  { obs; reward; terminal; timed_out; noop; invalid; degraded; error }

(* Stepping a finished episode is a typed error, not a panic: the result
   echoes the last observation and stays terminal so a driver that
   ignores [error] still cannot loop forever. *)
let episode_over_result t =
  {
    obs = t.last_obs;
    reward = 0.0;
    terminal = true;
    timed_out = false;
    noop = false;
    invalid = false;
    degraded = false;
    error = Some Env_error.Episode_over;
  }

let step t (tr : Schedule.transformation option) =
  match t.sched with
  | None -> raise (Env_error.Error Env_error.No_episode)
  | Some s when t.finished || t.steps >= t.cfg.Env_config.tau ->
      ignore s;
      episode_over_result t
  | Some s -> (
      t.steps <- t.steps + 1;
      let out_of_steps = t.steps >= t.cfg.Env_config.tau in
      let immediate = t.cfg.Env_config.reward_mode = Env_config.Immediate in
      let base = Evaluator.base_seconds t.ev s.Sched_state.original in
      let conclude s' ~ended =
        (* Measure when the reward mode demands it. *)
        t.sched <- Some s';
        let measured ~reward_of =
          let m, error = measure t s' in
          let degraded = error <> None in
          if m.Evaluator.timed_out then
            finish_result t s' ~reward:t.cfg.Env_config.timeout_penalty
              ~terminal:true ~timed_out:true ~noop:false ~invalid:false
              ~degraded ?error
          else
            finish_result t s' ~reward:(reward_of m.Evaluator.seconds)
              ~terminal:ended ~timed_out:false ~noop:false ~invalid:false
              ~degraded ?error
        in
        if immediate then
          measured ~reward_of:(fun sec ->
              let reward = log (t.prev_seconds /. sec) in
              t.prev_seconds <- sec;
              reward)
        else if ended then measured ~reward_of:(fun sec -> log (base /. sec))
        else
          finish_result t s' ~reward:0.0 ~terminal:false ~timed_out:false
            ~noop:false ~invalid:false
      in
      match tr with
      | None ->
          (* Explicit no-op: consumes a step; at the last step the schedule
             so far is still measured under Final reward. *)
          if out_of_steps then conclude s ~ended:true
          else
            finish_result t s ~reward:0.0 ~terminal:false ~timed_out:false
              ~noop:true ~invalid:false
      | Some tr -> (
          match Sched_state.apply s tr with
          | Error msg ->
              (* Mirrors a failing compilation in the paper's pipeline;
                 the transform layer's reason is preserved. *)
              finish_result t s ~reward:t.cfg.Env_config.timeout_penalty
                ~terminal:true ~timed_out:false ~noop:false ~invalid:true
                ~error:(Env_error.Invalid_action msg)
          | Ok s' ->
              let ended = Sched_state.is_done s' || out_of_steps in
              conclude s' ~ended))

let step_hierarchical t action =
  let s = state t in
  step t (Action_space.to_transformation t.cfg s action)
