(* Additional environment behaviours: adaptive timeout, render, and the
   timeout path through the env. *)

let cfg = Env_config.default

let pathological_schedule =
  (* Tile-by-1 then parallelize-by-1: thousands of trip-1 parallel
     region launches — three orders of magnitude slower than the base. *)
  [ Schedule.Tile [| 1; 1 |]; Schedule.Parallelize [| 1; 1 |] ]

let test_adaptive_timeout_triggers () =
  let ev = Evaluator.create () in
  let op = Linalg.add [| 64; 64 |] in
  let st = Result.get_ok (Sched_state.apply_all op pathological_schedule) in
  let m = Evaluator.measure ev st in
  Alcotest.(check bool) "timed out" true m.Evaluator.timed_out;
  Alcotest.(check (float 1e-12)) "capped at 10x base"
    (Evaluator.timeout_factor *. Evaluator.base_seconds ev op)
    m.Evaluator.seconds;
  Alcotest.(check (float 1e-9)) "speedup floored at 1/10"
    (1.0 /. Evaluator.timeout_factor)
    (Evaluator.speedup ev st)

let test_env_timeout_penalty () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Immediate cfg) in
  ignore (Env.reset env (Linalg.add [| 64; 64 |]));
  ignore (Env.step env (Some (Schedule.Tile [| 1; 1 |])));
  let r = Env.step env (Some (Schedule.Parallelize [| 1; 1 |])) in
  Alcotest.(check bool) "timed out" true r.Env.timed_out;
  Alcotest.(check (float 1e-9)) "penalty reward" cfg.Env_config.timeout_penalty
    r.Env.reward;
  Alcotest.(check bool) "terminal" true r.Env.terminal

let test_env_timeout_final_mode () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Final cfg) in
  ignore (Env.reset env (Linalg.add [| 64; 64 |]));
  let r1 = Env.step env (Some (Schedule.Tile [| 1; 1 |])) in
  Alcotest.(check bool) "no mid-episode timeout check in Final mode" false
    r1.Env.timed_out;
  ignore (Env.step env (Some (Schedule.Parallelize [| 1; 1 |])));
  let r = Env.step env (Some Schedule.Vectorize) in
  Alcotest.(check bool) "terminal timeout" true r.Env.timed_out;
  Alcotest.(check (float 1e-9)) "penalty" cfg.Env_config.timeout_penalty r.Env.reward

let test_render_states () =
  let env = Env.create cfg in
  Alcotest.(check string) "before reset" "<no episode: call reset>" (Env.render env);
  ignore (Env.reset env (Linalg.matmul ~m:64 ~n:64 ~k:64 ()));
  let r0 = Env.render env in
  Alcotest.(check bool) "mentions op" true
    (Astring_contains.contains r0 "matmul_64x64x64");
  Alcotest.(check bool) "empty schedule" true (Astring_contains.contains r0 "<empty>");
  ignore (Env.step env (Some (Schedule.Swap 1)));
  let r1 = Env.render env in
  Alcotest.(check bool) "schedule shown" true (Astring_contains.contains r1 "S(1)")

let suite =
  [
    Alcotest.test_case "adaptive timeout triggers" `Quick test_adaptive_timeout_triggers;
    Alcotest.test_case "env timeout penalty (Immediate)" `Quick test_env_timeout_penalty;
    Alcotest.test_case "env timeout penalty (Final)" `Quick test_env_timeout_final_mode;
    Alcotest.test_case "render" `Quick test_render_states;
  ]
