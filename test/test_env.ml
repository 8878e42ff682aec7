(* Observation extraction, action space masks, and environment dynamics. *)

let cfg = Env_config.default

(* --- Env_config --- *)

let test_obs_dim_formula () =
  (* Table 1 with N=7, L=3, D=4, tau=7: 7 + 3*4*8 + 4*8 + 6 + 147 *)
  Alcotest.(check int) "obs dim" (7 + 96 + 32 + 6 + 147) (Env_config.obs_dim cfg)

let test_config_validates () =
  Alcotest.(check bool) "default ok" true (Env_config.validate cfg = Ok ());
  Alcotest.(check bool) "need 2+ tile slots" true
    (Result.is_error (Env_config.validate { cfg with Env_config.n_tile_slots = 1 }))

let test_cardinality_formula () =
  (* |A| = 2*M^N + N! + 2 for the flat space the paper derives. *)
  let c = Action_space.cardinality cfg ~n_loops:3 in
  let m = float_of_int (Env_config.n_tile_choices cfg) in
  Alcotest.(check (float 1e-6)) "3 loops" ((2.0 *. (m ** 3.0)) +. 6.0 +. 2.0) c

(* --- Observation --- *)

let test_observation_length () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  Alcotest.(check int) "length" (Env_config.obs_dim cfg)
    (Array.length (Observation.extract cfg st))

let test_observation_loop_info () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let info = Observation.loop_info cfg st in
  Alcotest.(check int) "padded to N" 7 (Array.length info);
  Alcotest.(check (float 1e-9)) "log2(8)/16" (3.0 /. 16.0) info.(0);
  Alcotest.(check (float 1e-9)) "padding zero" 0.0 info.(6)

let test_observation_access_matrix () =
  let op = Test_helpers.small_matmul () in
  let st = Sched_state.init op in
  (* A[d0, d2] of the 8x12x16 matmul: row 0 selects d0, row 1 selects d2 *)
  let m = Observation.access_matrix cfg st op.Linalg.inputs.(0) in
  Alcotest.(check int) "D*(N+1)" 32 (Array.length m);
  Alcotest.(check (float 1e-9)) "row0 col0 = 1/4" 0.25 m.(0);
  Alcotest.(check (float 1e-9)) "row1 col2 = 1/4" 0.25 m.(8 + 2)

let test_observation_reflects_interchange () =
  let op = Test_helpers.small_matmul () in
  let st0 = Sched_state.init op in
  let st1 = Result.get_ok (Sched_state.apply st0 (Schedule.Swap 0)) in
  let m0 = Observation.access_matrix cfg st0 op.Linalg.inputs.(0) in
  let m1 = Observation.access_matrix cfg st1 op.Linalg.inputs.(0) in
  (* After swapping loops 0 and 1, A's d0 coefficient moves to column 1. *)
  Alcotest.(check (float 1e-9)) "moved" 0.25 m1.(1);
  Alcotest.(check bool) "columns differ" true (m0 <> m1)

let test_observation_history_tracks () =
  let op = Test_helpers.small_matmul () in
  let st =
    Result.get_ok
      (Sched_state.apply_all op [ Schedule.Tile [| 4; 0; 0 |]; Schedule.Swap 1 ])
  in
  let h = Observation.history cfg st in
  let tau = cfg.Env_config.tau in
  (* loop 0, row 0 (tiling), step 0: log2(4)/8 = 0.25 *)
  Alcotest.(check (float 1e-9)) "tile size recorded" 0.25 h.(0);
  (* loop 1, row 2 (interchange), step 1: (1+1)/7 *)
  let idx = (((1 * 3) + 2) * tau) + 1 in
  Alcotest.(check (float 1e-9)) "swap recorded" (2.0 /. 7.0) h.(idx)

let test_observation_math_counts_in_vector () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  (* counts live after loop info + L load matrices + store matrix *)
  let off = 7 + (3 * 32) + 32 in
  Alcotest.(check (float 1e-9)) "adds" 0.25 obs.(off);
  Alcotest.(check (float 1e-9)) "muls" 0.25 obs.(off + 2)

let test_observation_rejects_oversized () =
  let op =
    Linalg.generic ~domain:(Array.make 8 2)
      ~iter_kinds:(Array.make 8 Linalg.Parallel_iter)
      ~inputs:
        [ { Linalg.name = "x"; shape = Array.make 8 2; map = Affine.identity_map 8 } ]
      ~output:{ Linalg.name = "y"; shape = Array.make 8 2; map = Affine.identity_map 8 }
      ~body:(Linalg.Input 0) ()
  in
  Alcotest.(check bool) "raises" true
    (match Observation.extract cfg (Sched_state.init op) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Action space --- *)

let test_masks_initial_matmul () =
  (* 64^3 so the menu's sizes divide every loop. *)
  let st = Sched_state.init (Linalg.matmul ~m:64 ~n:64 ~k:64 ()) in
  let m = Action_space.masks cfg st in
  Alcotest.(check (array bool)) "transformations"
    [| true; true; true; false; true |] m.Action_space.t_mask;
  (* loop 2 is the reduction: par mask admits only "no tiling" there *)
  Alcotest.(check bool) "par loop0 tiles allowed" true
    (Array.exists (fun b -> b) (Array.sub m.Action_space.par_mask.(0) 1 4));
  Alcotest.(check (array bool)) "par reduction blocked"
    (Array.init 5 (fun j -> j = 0))
    m.Action_space.par_mask.(2)

let test_masks_divisors () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let m = Action_space.masks cfg st in
  (* trips (8,12,16): slots select proper divisors > 1, descending.
     Loop 0 (trip 8) has divisors {4, 2}; loop 2 (trip 16) has {8,4,2}. *)
  Alcotest.(check (array bool)) "loop 0" [| true; true; true; false; false |]
    m.Action_space.tile_mask.(0);
  Alcotest.(check (array bool)) "loop 2" [| true; true; true; true; false |]
    m.Action_space.tile_mask.(2);
  let sizes = Action_space.slot_sizes cfg st in
  Alcotest.(check (array int)) "loop 0 sizes" [| 0; 4; 2; 0; 0 |] sizes.(0);
  Alcotest.(check (array int)) "loop 1 sizes" [| 0; 6; 4; 3; 2 |] sizes.(1);
  Alcotest.(check (array int)) "loop 2 sizes" [| 0; 8; 4; 2; 0 |] sizes.(2)

let test_masks_padded_loops () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let m = Action_space.masks cfg st in
  Alcotest.(check (array bool)) "padding only no-tile"
    (Array.init 5 (fun j -> j = 0))
    m.Action_space.tile_mask.(5);
  Alcotest.(check bool) "swap 2 out of range" false m.Action_space.swap_mask.(2)

let test_masks_conv_im2col () =
  let st = Sched_state.init (Test_helpers.small_conv ()) in
  let m = Action_space.masks cfg st in
  Alcotest.(check bool) "im2col available" true m.Action_space.t_mask.(3)

let test_to_transformation_noop () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let action =
    { Action_space.transform = Action_space.t_tile;
      tile_choices = Array.make 7 0; swap_choice = 0 }
  in
  Alcotest.(check bool) "all-zero tiling is noop" true
    (Action_space.to_transformation cfg st action = None)

let test_to_transformation_tile () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let choices = Array.make 7 0 in
  choices.(2) <- 1 (* slot 1 of the trip-16 loop = divisor 8 *);
  let action =
    { Action_space.transform = Action_space.t_tile; tile_choices = choices; swap_choice = 0 }
  in
  match Action_space.to_transformation cfg st action with
  | Some (Schedule.Tile sizes) ->
      Alcotest.(check (array int)) "sizes" [| 0; 0; 8 |] sizes
  | _ -> Alcotest.fail "expected tile"

let test_simple_menu_and_mask () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let menu = Action_space.simple_menu cfg ~n_loops:3 in
  (* 3 tiles + 3 pars + 2 swaps + im2col + vectorize = 10 *)
  Alcotest.(check int) "menu size" 10 (Array.length menu);
  let mask = Action_space.simple_mask cfg st menu in
  Alcotest.(check bool) "vectorize allowed" true mask.(Array.length menu - 1);
  Alcotest.(check bool) "im2col masked for matmul" false mask.(Array.length menu - 2)

let test_legalize_zeroes_nondivisors () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  (* trips 8,12,16: uniform 16 only divides 16 *)
  match Action_space.legalize st (Schedule.Tile [| 16; 16; 16 |]) with
  | Some (Schedule.Tile sizes) ->
      Alcotest.(check (array int)) "fixed" [| 0; 0; 16 |] sizes
  | _ -> Alcotest.fail "expected legalized tile"

let test_legalize_par_respects_reductions () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  match Action_space.legalize st (Schedule.Parallelize [| 4; 4; 16 |]) with
  | Some (Schedule.Parallelize sizes) ->
      Alcotest.(check int) "reduction zeroed" 0 sizes.(2)
  | _ -> Alcotest.fail "expected legalized parallelize"

(* --- Env dynamics --- *)

let test_env_reset_and_masks () =
  let env = Env.create cfg in
  let obs = Env.reset env (Test_helpers.small_matmul ()) in
  Alcotest.(check int) "obs length" (Env_config.obs_dim cfg) (Array.length obs);
  Alcotest.(check int) "step count" 0 (Env.step_count env);
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0 (Env.current_speedup env)

let test_env_vectorize_ends_episode () =
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r = Env.step env (Some Schedule.Vectorize) in
  Alcotest.(check bool) "terminal" true r.Env.terminal;
  Alcotest.(check bool) "reward is log speedup" true (r.Env.reward > 0.0)

let test_env_final_reward_sparse () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Final cfg) in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r1 = Env.step env (Some (Schedule.Swap 0)) in
  Alcotest.(check (float 1e-12)) "intermediate zero" 0.0 r1.Env.reward;
  Alcotest.(check bool) "not terminal" false r1.Env.terminal

let test_env_immediate_reward_dense () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Immediate cfg) in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r = Env.step env (Some (Schedule.Parallelize [| 4; 4; 0 |])) in
  Alcotest.(check bool) "positive immediate reward" true (r.Env.reward > 0.0)

let test_env_immediate_rewards_telescope () =
  (* Sum of immediate log-rewards equals the final log speedup. *)
  let sched =
    [ Schedule.Parallelize [| 4; 4; 0 |]; Schedule.Swap 0; Schedule.Vectorize ]
  in
  let env = Env.create (Env_config.with_reward_mode Env_config.Immediate cfg) in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let total = List.fold_left (fun acc tr -> acc +. (Env.step env (Some tr)).Env.reward) 0.0 sched in
  let final = Env.current_speedup env in
  Alcotest.(check (float 1e-6)) "telescoping" (log final) total

let test_env_tau_limit () =
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let last = ref None in
  for _ = 1 to cfg.Env_config.tau do
    last := Some (Env.step env (Some (Schedule.Swap 0)))
  done;
  (match !last with
  | Some r -> Alcotest.(check bool) "terminal at tau" true r.Env.terminal
  | None -> Alcotest.fail "no steps");
  (* Stepping past the end is a typed error, not a panic. *)
  let r = Env.step env (Some (Schedule.Swap 0)) in
  Alcotest.(check bool) "episode-over error" true
    (r.Env.error = Some Env_error.Episode_over);
  Alcotest.(check bool) "still terminal" true r.Env.terminal;
  Alcotest.(check (float 1e-12)) "no reward" 0.0 r.Env.reward;
  Alcotest.(check int) "no step consumed" cfg.Env_config.tau (Env.step_count env)

let test_env_step_after_vectorize_typed () =
  (* Vectorize terminates before tau; further steps must surface
     Episode_over, not reach the transform layer. *)
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r = Env.step env (Some Schedule.Vectorize) in
  Alcotest.(check bool) "terminal" true r.Env.terminal;
  let r2 = Env.step env (Some (Schedule.Swap 0)) in
  Alcotest.(check bool) "typed error" true
    (r2.Env.error = Some Env_error.Episode_over);
  Alcotest.(check bool) "obs echoed" true (r2.Env.obs == r.Env.obs)

let test_env_invalid_carries_reason () =
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r = Env.step env (Some (Schedule.Tile [| 5; 0; 0 |])) in
  Alcotest.(check bool) "invalid" true r.Env.invalid;
  (match r.Env.error with
  | Some (Env_error.Invalid_action msg) ->
      Alcotest.(check bool) "reason preserved" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected Invalid_action with the transform reason");
  Alcotest.(check bool) "not flagged degraded" false r.Env.degraded

let test_env_state_before_reset_typed () =
  let env = Env.create cfg in
  Alcotest.(check bool) "typed exception" true
    (match Env.state env with
    | exception Env_error.Error Env_error.No_episode -> true
    | _ -> false);
  Alcotest.(check bool) "state_opt is None" true (Env.state_opt env = None);
  Alcotest.(check bool) "step raises typed" true
    (match Env.step env None with
    | exception Env_error.Error Env_error.No_episode -> true
    | _ -> false)

let test_env_episode_measurement_resets () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Immediate cfg) in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  ignore (Env.step env (Some (Schedule.Swap 0)));
  let total1 = Env.measurement_seconds env in
  Alcotest.(check bool) "first episode charged" true (total1 > 0.0);
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  Alcotest.(check (float 1e-12)) "cumulative counter kept across reset" total1
    (Env.measurement_seconds env);
  ignore (Env.step env (Some (Schedule.Swap 0)));
  Alcotest.(check bool) "second episode grows the cumulative counter" true
    (Env.measurement_seconds env > total1)

let test_env_invalid_action_penalized () =
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r = Env.step env (Some (Schedule.Tile [| 5; 0; 0 |])) in
  Alcotest.(check bool) "invalid flagged" true r.Env.invalid;
  Alcotest.(check (float 1e-9)) "penalty" cfg.Env_config.timeout_penalty r.Env.reward;
  Alcotest.(check bool) "terminal" true r.Env.terminal

let test_env_noop_consumes_step () =
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let r = Env.step env None in
  Alcotest.(check bool) "noop" true r.Env.noop;
  Alcotest.(check int) "step consumed" 1 (Env.step_count env)

let test_env_measurement_time_accumulates () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Immediate cfg) in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let before = Env.measurement_seconds env in
  ignore (Env.step env (Some (Schedule.Swap 0)));
  Alcotest.(check bool) "charged" true (Env.measurement_seconds env > before)

let test_env_final_measures_once_per_episode () =
  let env = Env.create (Env_config.with_reward_mode Env_config.Final cfg) in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  let before = Env.measurement_seconds env in
  ignore (Env.step env (Some (Schedule.Swap 0)));
  Alcotest.(check (float 1e-12)) "no mid-episode measurement" before
    (Env.measurement_seconds env);
  ignore (Env.step env (Some Schedule.Vectorize));
  Alcotest.(check bool) "terminal measurement" true
    (Env.measurement_seconds env > before)

let test_env_schedule_accessor () =
  let env = Env.create cfg in
  ignore (Env.reset env (Test_helpers.small_matmul ()));
  ignore (Env.step env (Some (Schedule.Swap 1)));
  Alcotest.(check string) "schedule" "S(1)" (Schedule.to_string (Env.schedule env))

let qcheck_env_random_episodes_terminate =
  QCheck.Test.make ~name:"random masked episodes always terminate legally" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let env = Env.create cfg in
      let policy = Policy.create ~hidden:8 ~backbone_layers:1 rng cfg in
      let op =
        Generator.random_op rng
          (Util.Rng.choice rng [| "matmul"; "conv2d"; "maxpool"; "add"; "relu" |])
      in
      let obs = ref (Env.reset env op) in
      let steps = ref 0 in
      let terminal = ref false in
      while not !terminal do
        let masks = Env.masks env in
        let action, _, _ = Policy.act rng policy ~obs:!obs ~masks in
        let r = Env.step_hierarchical env action in
        if r.Env.invalid then
          QCheck.Test.fail_report "masked action was rejected by the IR layer";
        obs := r.Env.obs;
        incr steps;
        terminal := r.Env.terminal
      done;
      !steps <= cfg.Env_config.tau)

let suite =
  [
    Alcotest.test_case "obs dim formula" `Quick test_obs_dim_formula;
    Alcotest.test_case "config validates" `Quick test_config_validates;
    Alcotest.test_case "cardinality formula" `Quick test_cardinality_formula;
    Alcotest.test_case "observation length" `Quick test_observation_length;
    Alcotest.test_case "loop info" `Quick test_observation_loop_info;
    Alcotest.test_case "access matrix" `Quick test_observation_access_matrix;
    Alcotest.test_case "interchange reflected" `Quick test_observation_reflects_interchange;
    Alcotest.test_case "history tracks" `Quick test_observation_history_tracks;
    Alcotest.test_case "math counts" `Quick test_observation_math_counts_in_vector;
    Alcotest.test_case "rejects oversized op" `Quick test_observation_rejects_oversized;
    Alcotest.test_case "masks initial matmul" `Quick test_masks_initial_matmul;
    Alcotest.test_case "masks divisors" `Quick test_masks_divisors;
    Alcotest.test_case "masks padded loops" `Quick test_masks_padded_loops;
    Alcotest.test_case "masks conv im2col" `Quick test_masks_conv_im2col;
    Alcotest.test_case "all-zero tile is noop" `Quick test_to_transformation_noop;
    Alcotest.test_case "tile conversion" `Quick test_to_transformation_tile;
    Alcotest.test_case "simple menu and mask" `Quick test_simple_menu_and_mask;
    Alcotest.test_case "legalize zeroes non-divisors" `Quick
      test_legalize_zeroes_nondivisors;
    Alcotest.test_case "legalize par reductions" `Quick
      test_legalize_par_respects_reductions;
    Alcotest.test_case "env reset" `Quick test_env_reset_and_masks;
    Alcotest.test_case "vectorize ends episode" `Quick test_env_vectorize_ends_episode;
    Alcotest.test_case "final reward sparse" `Quick test_env_final_reward_sparse;
    Alcotest.test_case "immediate reward dense" `Quick test_env_immediate_reward_dense;
    Alcotest.test_case "immediate rewards telescope" `Quick
      test_env_immediate_rewards_telescope;
    Alcotest.test_case "tau limit" `Quick test_env_tau_limit;
    Alcotest.test_case "step after vectorize typed" `Quick
      test_env_step_after_vectorize_typed;
    Alcotest.test_case "invalid carries reason" `Quick
      test_env_invalid_carries_reason;
    Alcotest.test_case "state before reset typed" `Quick
      test_env_state_before_reset_typed;
    Alcotest.test_case "episode measurement resets" `Quick
      test_env_episode_measurement_resets;
    Alcotest.test_case "invalid action penalized" `Quick test_env_invalid_action_penalized;
    Alcotest.test_case "noop consumes step" `Quick test_env_noop_consumes_step;
    Alcotest.test_case "measurement time accumulates" `Quick
      test_env_measurement_time_accumulates;
    Alcotest.test_case "final measures once" `Quick
      test_env_final_measures_once_per_episode;
    Alcotest.test_case "schedule accessor" `Quick test_env_schedule_accessor;
    QCheck_alcotest.to_alcotest qcheck_env_random_episodes_terminate;
  ]
