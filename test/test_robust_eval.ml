(* Fault injection, the evaluator's repeat/retry/degrade measurement
   loop, and the environment's failure paths: degraded measurements,
   timeouts under both reward modes, and deterministic fault replay. *)

let cfg = Env_config.default

let matmul () = Linalg.matmul ~m:64 ~n:64 ~k:64 ()

let vectorized_state () =
  Result.get_ok (Sched_state.apply_all (matmul ()) [ Schedule.Vectorize ])

(* Tile-by-1 then parallelize-by-1 explodes the launch overhead: three
   orders of magnitude slower than base, guaranteed adaptive timeout. *)
let pathological_op () = Linalg.add [| 64; 64 |]

let pathological_schedule =
  [ Schedule.Tile [| 1; 1 |]; Schedule.Parallelize [| 1; 1 |] ]

(* --- Faults --- *)

let drain n f = List.init n (fun _ -> Faults.draw f)

let test_faults_replay_identical () =
  let seq seed =
    drain 200 (Faults.create ~config:(Faults.flaky ~rate:0.5 ()) ~seed ())
  in
  Alcotest.(check bool) "same seed, same faults" true (seq 11 = seq 11);
  Alcotest.(check bool) "different seed, different faults" true
    (seq 11 <> seq 12)

let test_faults_all_categories_fire () =
  let f = Faults.create ~config:(Faults.flaky ~rate:0.6 ()) ~seed:5 () in
  let seen = drain 2000 f in
  let has p = List.exists (fun x -> match x with Some y -> p y | None -> false) seen in
  Alcotest.(check bool) "timeouts" true
    (has (function Faults.Transient_timeout -> true | _ -> false));
  Alcotest.(check bool) "compile failures" true
    (has (function Faults.Compile_failure -> true | _ -> false));
  Alcotest.(check bool) "hangs" true
    (has (function Faults.Hang _ -> true | _ -> false));
  Alcotest.(check bool) "outliers above 1x" true
    (has (function Faults.Latency_outlier k -> k > 1.0 | _ -> false));
  Alcotest.(check bool) "clean calls too" true (List.mem None seen);
  Alcotest.(check int) "calls counted" 2000 (Faults.calls f)

let test_faults_crash_on_nth () =
  let f =
    Faults.create
      ~config:{ Faults.none with Faults.crash_on_call = Some 3 }
      ~seed:0 ()
  in
  let seen = drain 5 f in
  Alcotest.(check bool) "crashes exactly on call 3" true
    (seen = [ None; None; Some Faults.Crash; None; None ])

let test_faults_state_restore () =
  let f = Faults.create ~config:(Faults.flaky ~rate:0.5 ()) ~seed:3 () in
  ignore (drain 17 f);
  let saved = Faults.state f in
  let tail = drain 50 f in
  Faults.restore f saved;
  Alcotest.(check bool) "restored stream replays" true (drain 50 f = tail)

let test_faults_validate () =
  Alcotest.(check bool) "negative prob rejected" true
    (Result.is_error
       (Faults.validate { Faults.none with Faults.hang_prob = -0.1 }));
  Alcotest.(check bool) "overfull mass rejected" true
    (Result.is_error
       (Faults.validate
          { Faults.none with Faults.hang_prob = 0.6; outlier_prob = 0.6 }))

(* --- Measurement under faults --- *)

(* An evaluator with a fault injector attached measures the paper's
   way: repeats, retries, degradation. Each successful run is one
   [state_seconds] call, so [explored] counts the samples taken. *)
let faulty ?(noise = 0.0) ?(noise_seed = 0) ?(seed = 0) config =
  Evaluator.create ~noise ~noise_seed
    ~faults:(Faults.create ~config ~seed ())
    ()

let samples ev = (Evaluator.counters ev).Evaluator.explored

let test_robust_matches_plain_when_clean () =
  let ev = faulty Faults.none in
  let st = vectorized_state () in
  let m = Evaluator.measure ev st in
  Alcotest.(check bool) "exact" true (m.Evaluator.quality = Evaluator.Exact);
  Alcotest.(check int) "min repeats" 3 (samples ev);
  Alcotest.(check int) "no retries" 0 m.Evaluator.retries;
  (* Noiseless samples are identical; the median is the plain value. *)
  Alcotest.(check (float 1e-15)) "agrees with plain evaluator"
    (Evaluator.state_seconds (Evaluator.create ()) st)
    m.Evaluator.seconds

let test_robust_repeats_until_stable () =
  (* Heavy jitter: the adaptive loop should take more than min_repeats
     samples (up to the cap) before aggregating. *)
  let ev = faulty ~noise:0.4 ~noise_seed:9 Faults.none in
  let m = Evaluator.measure ev (vectorized_state ()) in
  Alcotest.(check int) "hits the repeat cap" 9 (samples ev);
  Alcotest.(check bool) "still exact" true (m.Evaluator.quality = Evaluator.Exact)

let test_robust_aggregation_tames_outliers () =
  (* 20% heavy (up to 50x) outliers: median aggregation keeps the
     typical measurement at the clean value, and the large majority of
     measurements within a small factor of it — where a mean would be
     dragged far off by every contaminated batch. *)
  let clean = Evaluator.state_seconds (Evaluator.create ()) (vectorized_state ()) in
  let ev =
    faulty ~seed:21
      { Faults.none with Faults.outlier_prob = 0.2; outlier_scale = 50.0 }
  in
  let ratios =
    List.init 20 (fun _ ->
        (Evaluator.measure ev (vectorized_state ())).Evaluator.seconds /. clean)
  in
  Alcotest.(check (float 1e-9)) "typical measurement unaffected" 1.0
    (Util.Stats.median ratios);
  let tamed = List.length (List.filter (fun r -> r < 3.0) ratios) in
  Alcotest.(check bool)
    (Printf.sprintf "most measurements within 3x (%d/20)" tamed)
    true (tamed >= 16)

let test_robust_degrades_to_cost_model () =
  let ev =
    faulty ~seed:1 { Faults.none with Faults.transient_timeout_prob = 1.0 }
  in
  let st = vectorized_state () in
  let m = Evaluator.measure ev st in
  Alcotest.(check bool) "degraded" true
    (match m.Evaluator.quality with
    | Evaluator.Degraded _ -> true
    | Evaluator.Exact -> false);
  Alcotest.(check int) "all retries spent" Evaluator.max_retries
    m.Evaluator.retries;
  Alcotest.(check int) "no samples" 0 (samples ev);
  (* The fallback is the pure cost-model estimate — the plain
     evaluator's noiseless price for the same state. *)
  Alcotest.(check (float 1e-15)) "cost-model fallback"
    (Evaluator.state_seconds (Evaluator.create ()) st)
    m.Evaluator.seconds;
  Alcotest.(check int) "counted" 1 (Evaluator.counters ev).Evaluator.degraded

let test_robust_backoff_charges_budget () =
  let ev =
    faulty ~seed:1 { Faults.none with Faults.compile_failure_prob = 1.0 }
  in
  let m = Evaluator.measure ev (vectorized_state ()) in
  (* Compile failures charge nothing but the backoff pauses:
     1 + 2 + 4 + 8 = 15 simulated seconds. *)
  Alcotest.(check (float 1e-9)) "exponential backoff charged" 15.0
    m.Evaluator.charged

let test_robust_recovers_from_crash () =
  let ev = faulty ~seed:4 { Faults.none with Faults.crash_on_call = Some 1 } in
  let m = Evaluator.measure ev (vectorized_state ()) in
  Alcotest.(check bool) "exact after crash recovery" true
    (m.Evaluator.quality = Evaluator.Exact);
  Alcotest.(check int) "one retry" 1 m.Evaluator.retries

let test_robust_trace_replays_identically () =
  let run () =
    let ev =
      faulty ~noise:0.05 ~noise_seed:2 ~seed:77 (Faults.flaky ~rate:0.4 ())
    in
    List.init 25 (fun _ -> Evaluator.measure ev (vectorized_state ()))
  in
  let a = run () and b = run () in
  Alcotest.(check int) "25 measurements" 25 (List.length a);
  Alcotest.(check bool) "recovery trace identical across runs" true (a = b)

let test_base_cache_keys_by_shape () =
  (* Two ops sharing a name but differing in shape must not share a
     cached baseline. *)
  let ev = Evaluator.create () in
  let small = Linalg.matmul ~name:"shared" ~m:8 ~n:8 ~k:8 () in
  let big = Linalg.matmul ~name:"shared" ~m:256 ~n:256 ~k:256 () in
  let a = Evaluator.base_seconds ev small in
  let b = Evaluator.base_seconds ev big in
  Alcotest.(check bool) "distinct baselines" true (b > a *. 10.0);
  Alcotest.(check (float 1e-15)) "cache still hits" a
    (Evaluator.base_seconds ev small);
  Alcotest.(check bool) "digests differ" true
    (Linalg.digest small <> Linalg.digest big)

(* --- Environment failure paths under faults --- *)

let robust_env ?(reward_mode = Env_config.Final) ?(rate = 0.3) ?(seed = 9) () =
  Env.create
    ~evaluator:(faulty ~seed (Faults.flaky ~rate ()))
    (Env_config.with_reward_mode reward_mode Env_config.default)

let test_env_timeout_reward_immediate () =
  let env = robust_env ~reward_mode:Env_config.Immediate ~rate:0.0 () in
  ignore (Env.reset env (pathological_op ()));
  ignore (Env.step env (Some (Schedule.Tile [| 1; 1 |])));
  let r = Env.step env (Some (Schedule.Parallelize [| 1; 1 |])) in
  Alcotest.(check bool) "timed out" true r.Env.timed_out;
  Alcotest.(check (float 1e-9)) "timeout penalty"
    cfg.Env_config.timeout_penalty r.Env.reward;
  Alcotest.(check bool) "terminal" true r.Env.terminal

let test_env_timeout_reward_final () =
  let env = robust_env ~reward_mode:Env_config.Final ~rate:0.0 () in
  ignore (Env.reset env (pathological_op ()));
  ignore (Env.step env (Some (Schedule.Tile [| 1; 1 |])));
  ignore (Env.step env (Some (Schedule.Parallelize [| 1; 1 |])));
  let r = Env.step env (Some Schedule.Vectorize) in
  Alcotest.(check bool) "timed out at the terminal measurement" true
    r.Env.timed_out;
  Alcotest.(check (float 1e-9)) "timeout penalty"
    cfg.Env_config.timeout_penalty r.Env.reward

let test_env_degraded_flagged () =
  (* A backend that always fails: every measured step must be flagged
     degraded with a typed Backend_failure, and the episode must still
     complete without an exception. *)
  let env =
    Env.create
      ~evaluator:
        (faulty ~seed:2 { Faults.none with Faults.transient_timeout_prob = 1.0 })
      (Env_config.with_reward_mode Env_config.Immediate Env_config.default)
  in
  let degraded () = (Evaluator.counters (Env.evaluator env)).Evaluator.degraded in
  ignore (Env.reset env (matmul ()));
  let r = Env.step env (Some (Schedule.Swap 0)) in
  Alcotest.(check bool) "degraded flag" true r.Env.degraded;
  (match r.Env.error with
  | Some (Env_error.Backend_failure f) ->
      Alcotest.(check int) "retries reported" Evaluator.max_retries
        f.Env_error.retries;
      Alcotest.(check bool) "op recorded" true
        (f.Env_error.op_name = (matmul ()).Linalg.op_name)
  | _ -> Alcotest.fail "expected a typed Backend_failure");
  Alcotest.(check int) "cumulative degraded count" 1 (degraded ());
  ignore (Env.reset env (matmul ()));
  Alcotest.(check int) "cumulative counter kept" 1 (degraded ())

let test_env_robust_charges_budget () =
  let env = robust_env ~reward_mode:Env_config.Immediate ~rate:0.0 () in
  ignore (Env.reset env (matmul ()));
  ignore (Env.step env (Some (Schedule.Swap 0)));
  (* One robust measurement = compile charge + >= min_repeats runs, so
     strictly more than the plain evaluator's single run would cost. *)
  let plain = Env.create (Env_config.with_reward_mode Env_config.Immediate cfg) in
  ignore (Env.reset plain (matmul ()));
  ignore (Env.step plain (Some (Schedule.Swap 0)));
  Alcotest.(check bool) "repeats cost simulated time" true
    (Env.measurement_seconds env > Env.measurement_seconds plain)

let qcheck_faulty_episodes_never_raise =
  QCheck.Test.make ~name:"episodes survive a 30% transient-failure backend"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let env =
        robust_env
          ~reward_mode:
            (if seed mod 2 = 0 then Env_config.Immediate else Env_config.Final)
          ~rate:0.3 ~seed ()
      in
      let policy = Policy.create ~hidden:8 ~backbone_layers:1 rng Env_config.default in
      let op =
        Generator.random_op rng
          (Util.Rng.choice rng [| "matmul"; "conv2d"; "maxpool"; "add"; "relu" |])
      in
      let obs = ref (Env.reset env op) in
      let terminal = ref false in
      let steps = ref 0 in
      while not !terminal do
        let masks = Env.masks env in
        let action, _, _ = Policy.act rng policy ~obs:!obs ~masks in
        let r = Env.step_hierarchical env action in
        (* Degraded steps must carry their typed error and vice versa. *)
        if r.Env.degraded <> (match r.Env.error with
                              | Some (Env_error.Backend_failure _) -> true
                              | _ -> false)
        then QCheck.Test.fail_report "degraded flag and error out of sync";
        obs := r.Env.obs;
        incr steps;
        terminal := r.Env.terminal
      done;
      !steps <= Env_config.default.Env_config.tau)

let suite =
  [
    Alcotest.test_case "faults replay identically" `Quick test_faults_replay_identical;
    Alcotest.test_case "all fault categories fire" `Quick
      test_faults_all_categories_fire;
    Alcotest.test_case "crash on nth call" `Quick test_faults_crash_on_nth;
    Alcotest.test_case "fault state restore" `Quick test_faults_state_restore;
    Alcotest.test_case "fault config validation" `Quick test_faults_validate;
    Alcotest.test_case "clean robust = plain" `Quick
      test_robust_matches_plain_when_clean;
    Alcotest.test_case "repeats until stable" `Quick test_robust_repeats_until_stable;
    Alcotest.test_case "aggregation tames outliers" `Quick
      test_robust_aggregation_tames_outliers;
    Alcotest.test_case "degrades to cost model" `Quick
      test_robust_degrades_to_cost_model;
    Alcotest.test_case "backoff charges budget" `Quick
      test_robust_backoff_charges_budget;
    Alcotest.test_case "recovers from crash" `Quick test_robust_recovers_from_crash;
    Alcotest.test_case "trace replays identically" `Quick
      test_robust_trace_replays_identically;
    Alcotest.test_case "base cache keyed by shape" `Quick
      test_base_cache_keys_by_shape;
    Alcotest.test_case "timeout reward (Immediate)" `Quick
      test_env_timeout_reward_immediate;
    Alcotest.test_case "timeout reward (Final)" `Quick test_env_timeout_reward_final;
    Alcotest.test_case "degraded flagged in trace" `Quick test_env_degraded_flagged;
    Alcotest.test_case "robust charges budget" `Quick test_env_robust_charges_budget;
    QCheck_alcotest.to_alcotest qcheck_faulty_episodes_never_raise;
  ]
