(* Robustness micro-benchmark: what the evaluator's repeat/retry
   measurement loop (attached with a fault injector) costs on top of a
   single run, in real per-call time and in the simulated
   measurement budget it charges, across fault rates. Also prints a
   fault-sweep of training outcomes — how much injected flakiness a
   short PPO run tolerates before quality moves. *)

let per_call_overhead () =
  Bench_common.subheading
    "Per-call wall-clock overhead (1000 measurements of a scheduled matmul)";
  let op = Linalg.matmul ~m:512 ~n:512 ~k:512 () in
  let sched =
    match Schedule.of_string "P(64,64,0) T(8,64,64) S(1) V" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let state = Result.get_ok (Sched_state.apply_all op sched) in
  let calls = 1000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e6
  in
  let ev = Evaluator.create () in
  let plain_us = time (fun () -> ignore (Evaluator.state_seconds ev state)) in
  Printf.printf "%-34s %12s %14s %10s\n" "evaluator" "us/call" "simulated s"
    "degraded";
  Printf.printf "%-34s %12.2f %14s %10s\n" "plain" plain_us "-" "-";
  List.iter
    (fun rate ->
      let faults = Faults.create ~config:(Faults.flaky ~rate ()) ~seed:7 () in
      let ev = Evaluator.create ~faults () in
      let charged = ref 0.0 in
      let us =
        time (fun () ->
            charged :=
              !charged +. (Evaluator.measure ev state).Evaluator.charged)
      in
      Printf.printf "%-34s %12.2f %14.3e %10d\n"
        (Printf.sprintf "robust, fault rate %.0f%%" (rate *. 100.0))
        us
        (!charged /. float_of_int calls)
        (Evaluator.counters ev).Evaluator.degraded)
    [ 0.0; 0.1; 0.3 ];
  Printf.printf
    "(with faults attached each measurement repeats >= %d times and retries\n\
    \ failures with backoff, so both columns grow with the fault rate; the\n\
    \ simulated column is what training budgets actually pay)\n"
    Evaluator.min_repeats

let fault_sweep (c : Bench_common.config) =
  Bench_common.subheading "Fault sweep: short PPO run vs injected fault rate";
  let iterations = c.Bench_common.ablation_iterations in
  let op = Linalg.matmul ~m:1024 ~n:1024 ~k:1024 () in
  Printf.printf "%d PPO iterations on %s, seed %d\n" iterations op.Linalg.op_name
    c.Bench_common.seed;
  Printf.printf "%-12s %12s %12s %12s %14s\n" "fault rate" "best x" "final x"
    "degraded" "simulated s";
  List.iter
    (fun rate ->
      let cfg = Env_config.default in
      let faults = Faults.create ~config:(Faults.flaky ~rate ()) ~seed:11 () in
      let env = Env.create ~evaluator:(Evaluator.create ~faults ()) cfg in
      let rng = Util.Rng.create c.Bench_common.seed in
      let policy =
        Policy.create ~hidden:c.Bench_common.hidden ~backbone_layers:2 rng cfg
      in
      let config =
        {
          Trainer.default_config with
          Trainer.ppo =
            { Ppo.default_config with Ppo.entropy_coef = c.Bench_common.entropy_coef };
          iterations;
          seed = c.Bench_common.seed;
        }
      in
      let stats = Trainer.train config env policy ~ops:[| op |] in
      let last = List.nth stats (List.length stats - 1) in
      Printf.printf "%-12s %12.1f %12.1f %12d %14.3e\n%!"
        (Printf.sprintf "%.0f%%" (rate *. 100.0))
        last.Trainer.best_speedup last.Trainer.mean_final_speedup
        last.Trainer.degraded_measurements last.Trainer.measurement_seconds)
    [ 0.0; 0.05; 0.1; 0.2 ];
  Printf.printf
    "(degraded measurements fall back to the cost-model estimate and are\n\
    \ flagged in the episode trace; training absorbs moderate fault rates\n\
    \ because the median-of-repeats reward stays unbiased)\n"

let run (c : Bench_common.config) =
  Bench_common.heading "Fault injection: robust-measurement overhead and tolerance";
  per_call_overhead ();
  fault_sweep c
