(* mlir-rl: command-line driver for the RL environment, the baseline
   auto-scheduler and the comparators.

   Try:
     dune exec bin/mlir_rl_cli.exe -- show matmul:512x512x512
     dune exec bin/mlir_rl_cli.exe -- schedule matmul:512x512x512 "P(64,64,0) T(8,64,64) S(1) V"
     dune exec bin/mlir_rl_cli.exe -- autoschedule conv2d:56x56x64,k3,f128,s1
     dune exec bin/mlir_rl_cli.exe -- train --iterations 20 --hidden 64
     dune exec bin/mlir_rl_cli.exe -- compare maxpool:112x112x64,k2,s2 *)

open Cmdliner

let op_of_spec spec =
  match Op_spec.parse spec with
  | Ok op -> op
  | Error e ->
      Format.eprintf "bad op spec %S: %s@.examples:@." spec e;
      List.iter (Format.eprintf "  %s@.") Op_spec.examples;
      exit 2

let spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OP"
        ~doc:"Operation spec, e.g. matmul:1024x1024x1024 or conv2d:56x56x64,k3,f128,s1")

(* Uniform --jobs validation, shared by every command that takes the
   flag (train / infer / autoschedule / serve): reject below 1 with one
   message, before any other work. The default is 1 everywhere —
   parallelism is always opt-in. *)
let check_jobs jobs =
  if jobs < 1 then begin
    Format.eprintf "--jobs must be >= 1 (got %d)@." jobs;
    exit 2
  end

(* Verifier / differential-sanitizer counters, printed to stderr (the
   determinism smokes diff stdout) at the end of commands that apply
   transformations. Silent unless a check layer is on. *)
let report_check_stats () =
  if Verifier.enabled () then begin
    let v = Verifier.stats () in
    Format.eprintf "verifier: %d checks, %d violations@." v.Verifier.checks
      v.Verifier.violations
  end;
  if Sanitizer.enabled () then begin
    let s = Sanitizer.stats () in
    Format.eprintf "sanitizer: %d differential runs, %d skips, %d violations@."
      s.Sanitizer.runs s.Sanitizer.skips s.Sanitizer.violations
  end

(* --- show --- *)

let show_cmd =
  let run spec =
    let op = op_of_spec spec in
    Format.printf "%a@.@." Linalg.pp op;
    Format.printf "%s@." (Ir_printer.to_string (Lower.to_loop_nest op))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print an operation and its canonical loop nest")
    Term.(const run $ spec_arg)

(* --- schedule --- *)

let schedule_cmd =
  let run spec sched_str =
    let op = op_of_spec spec in
    let sched =
      match Schedule.of_string sched_str with
      | Ok s -> s
      | Error e ->
          Format.eprintf "bad schedule %S: %s@." sched_str e;
          exit 2
    in
    match Sched_state.apply_all op sched with
    | Error e ->
        Format.eprintf "schedule rejected: %s@." e;
        exit 1
    | Ok st ->
        Format.printf "%s@.@." (Ir_printer.to_string st.Sched_state.nest);
        let ev = Evaluator.create () in
        let base = Evaluator.base_seconds ev op in
        let speedup = Evaluator.speedup ev st in
        Format.printf "base time : %.6f s@." base;
        Format.printf "time      : %.6f s@." (base /. speedup);
        Format.printf "speedup   : %.2fx@." speedup
  in
  let sched_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SCHEDULE" ~doc:"Schedule, e.g. \"P(64,64,0) T(8,64,64) S(1) V\"")
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Apply a schedule to an operation; print the nest and estimated speedup")
    Term.(const run $ spec_arg $ sched_arg)

(* --- features --- *)

let features_cmd =
  let run spec =
    let op = op_of_spec spec in
    let cfg = Env_config.default in
    let st = Sched_state.init op in
    let obs = Observation.extract cfg st in
    Format.printf "observation length: %d (Table 1: N + L*D*(N+1) + D*(N+1) + 6 + N*3*tau)@."
      (Array.length obs);
    let info = Observation.loop_info cfg st in
    Format.printf "loop info: [%s]@."
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3f") info)));
    Array.iteri
      (fun i o ->
        Format.printf "access matrix of input %d (%s):@." i o.Linalg.name;
        let m = Affine.to_matrix o.Linalg.map in
        Array.iter
          (fun row ->
            Format.printf "  [%s]@."
              (String.concat " " (Array.to_list (Array.map string_of_int row))))
          m)
      op.Linalg.inputs;
    Format.printf "math op counts (add sub mul div exp log): [%s]@."
      (String.concat "; "
         (Array.to_list (Array.map string_of_int (Linalg.math_op_counts op))))
  in
  Cmd.v
    (Cmd.info "features" ~doc:"Print the observation extracted from an operation")
    Term.(const run $ spec_arg)

(* --- autoschedule --- *)

let autoschedule_cmd =
  let run spec budget surrogate rerank_k jobs =
    check_jobs jobs;
    let op = op_of_spec spec in
    let ev = Evaluator.create () in
    let config =
      { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
    in
    (* The parallelism banner goes to stderr: stdout must stay
       byte-identical across --jobs values (the CI smoke diffs it). *)
    if jobs > 1 then
      Format.eprintf
        "parallel search: %d worker domains (results identical to --jobs 1)@."
        jobs;
    let r =
      match surrogate with
      | None -> Auto_scheduler.search ~config ~jobs ev op
      | Some path -> (
          (* Staged mode: the checkpointed surrogate ranks the candidate
             set and only the top rerank_k get the exact cost model. *)
          match
            Surrogate.Ranker.of_checkpoint ~machine:(Evaluator.machine ev)
              ~path ()
          with
          | Error e ->
              Format.eprintf "surrogate checkpoint rejected: %s@." e;
              exit 2
          | Ok ranker ->
              Surrogate.Ranker.attach ranker ev;
              Surrogate.Counters.incr_searches ();
              let r =
                Auto_scheduler.search_staged ~config
                  ~ranker:(Surrogate.Ranker.schedule_scorer ranker op)
                  ~rerank_k ~jobs ev op
              in
              Surrogate.Counters.add_reranked r.Auto_scheduler.explored;
              r)
    in
    Format.printf "explored : %d schedules@." r.Auto_scheduler.explored;
    Format.printf "best     : %s@." (Schedule.to_string r.Auto_scheduler.best_schedule);
    Format.printf "speedup  : %.2fx@." r.Auto_scheduler.best_speedup;
    let base = Evaluator.base_seconds ev op in
    Format.printf "time     : %.6f s (base %.6f s)@."
      (base /. r.Auto_scheduler.best_speedup)
      base;
    (* Cache counters go to stderr: under --jobs > 1 the hit/miss split
       across the shared sharded caches is scheduling-dependent (the
       cached values are pure, so the search result is byte-identical),
       and stdout must stay diffable across --jobs values. *)
    Format.eprintf "caches   : %s@."
      (Evaluator.render_cache_stats (Evaluator.cache_stats ev));
    report_check_stats ()
  in
  let budget_arg =
    Arg.(value & opt int 3000 & info [ "budget" ] ~doc:"Exploration budget")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for parallel candidate evaluation (default 1). \
             The search result is bit-identical for any value (see \
             docs/parallelism.md)")
  in
  let surrogate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "surrogate" ] ~docv:"CKPT"
          ~doc:
            "Surrogate checkpoint (see $(b,surrogate train)); enables staged \
             re-ranking. Without it the exact search runs, byte-identical to \
             previous releases.")
  in
  let rerank_arg =
    Arg.(
      value
      & opt int Auto_scheduler.default_rerank_k
      & info [ "rerank-k" ]
          ~doc:"Candidates handed from the surrogate to the exact model")
  in
  Cmd.v
    (Cmd.info "autoschedule"
       ~doc:"Run the baseline exhaustive auto-scheduler on an operation")
    Term.(const run $ spec_arg $ budget_arg $ surrogate_arg $ rerank_arg $ jobs_arg)

(* --- compare --- *)

let compare_cmd =
  let run spec budget =
    let op = op_of_spec spec in
    let ev = Evaluator.create () in
    let base = Evaluator.base_seconds ev op in
    let config =
      { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
    in
    let auto = Auto_scheduler.search ~config ev op in
    let expert_sched, expert_speedup = Tf_baseline.expert_schedule ev op in
    let tf = Tf_baseline.tf_seconds ev op in
    let tf_jit = Tf_baseline.tf_jit_seconds ev op in
    Format.printf "%-18s %14s %10s@." "method" "time (s)" "speedup";
    let row name t =
      Format.printf "%-18s %14.6f %9.1fx@." name t (base /. t)
    in
    row "base (no opt)" base;
    row "auto-scheduler" (base /. auto.Auto_scheduler.best_speedup);
    row "expert menu" (base /. expert_speedup);
    row "tensorflow" tf;
    row "tensorflow-jit" tf_jit;
    Format.printf "@.auto-scheduler schedule: %s@."
      (Schedule.to_string auto.Auto_scheduler.best_schedule);
    Format.printf "expert schedule        : %s@." (Schedule.to_string expert_sched)
  in
  let budget_arg =
    Arg.(value & opt int 3000 & info [ "budget" ] ~doc:"Auto-scheduler budget")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare base / auto-scheduler / TF on one operation")
    Term.(const run $ spec_arg $ budget_arg)

(* --- dataset --- *)

let dataset_cmd =
  let run seed samples =
    let split = Generator.generate ~seed () in
    Format.printf "Table 2 reproduction (seed %d)@." seed;
    Format.printf "%-12s %8s %12s@." "operation" "training" "validation";
    let train_counts = Generator.kind_counts split.Generator.train in
    let val_counts = Generator.kind_counts split.Generator.validation in
    List.iter
      (fun (k, n_train) ->
        Format.printf "%-12s %8d %12d@." k n_train (List.assoc k val_counts))
      train_counts;
    Format.printf "%-12s %8d %12d@." "total"
      (Array.length split.Generator.train)
      (Array.length split.Generator.validation);
    if samples > 0 then begin
      Format.printf "@.sample validation ops:@.";
      Array.iteri
        (fun i op ->
          if i < samples then
            Format.printf "  %s@."
              (Option.value ~default:op.Linalg.op_name (Op_spec.to_spec op)))
        split.Generator.validation
    end
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed") in
  let samples_arg =
    Arg.(value & opt int 5 & info [ "samples" ] ~doc:"How many sample specs to print")
  in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Generate and summarize the Table 2 dataset")
    Term.(const run $ seed_arg $ samples_arg)

(* --- train --- *)

let train_cmd =
  let run iterations hidden seed immediate specs save_path fault_rate fault_seed
      noise checkpoint_path checkpoint_every resume jobs =
    check_jobs jobs;
    let cfg = Env_config.default in
    let cfg =
      if immediate then Env_config.with_reward_mode Env_config.Immediate cfg
      else cfg
    in
    if resume && checkpoint_path = None then begin
      Format.eprintf "--resume requires --checkpoint PREFIX@.";
      exit 2
    end;
    let faults =
      if fault_rate > 0.0 then begin
        let config = Faults.flaky ~rate:fault_rate () in
        (match Faults.validate config with
        | Ok () -> ()
        | Error e ->
            Format.eprintf "bad --fault-rate %g: %s@." fault_rate e;
            exit 2);
        Some
          (Faults.create ~config
             ~seed:(match fault_seed with Some s -> s | None -> seed + 31)
             ())
      end
      else None
    in
    let evaluator =
      Evaluator.create ~machine:cfg.Env_config.machine ~noise
        ~noise_seed:(seed + 13) ?faults ()
    in
    let env = Env.create ~evaluator cfg in
    let rng = Util.Rng.create seed in
    let policy = Policy.create ~hidden ~backbone_layers:2 rng cfg in
    let ops =
      if specs = [] then begin
        let split = Generator.generate ~seed () in
        split.Generator.train
      end
      else Array.of_list (List.map op_of_spec specs)
    in
    Format.printf "training on %d ops | %d iterations | hidden %d | %s reward | %d params@."
      (Array.length ops) iterations hidden
      (if immediate then "Immediate" else "Final")
      (Policy.param_count policy);
    if fault_rate > 0.0 then
      Format.printf
        "fault injection: %.0f%% transient failures (robust evaluator: retries + degradation)@."
        (fault_rate *. 100.0);
    (match checkpoint_path with
    | Some p ->
        Format.printf "checkpointing to %s every %d iterations%s@." p
          checkpoint_every
          (if resume then " (resuming if a checkpoint exists)" else "")
    | None -> ());
    (* The parallelism banner goes to stderr: stdout must stay
       byte-identical across --jobs values (that equality is what the
       determinism smoke tests diff). *)
    if jobs > 1 then
      Format.eprintf
        "parallel collection: %d worker domains (results identical to --jobs 1)@."
        jobs;
    Format.printf "@.";
    let config =
      {
        Trainer.default_config with
        Trainer.iterations;
        seed;
        checkpoint_path;
        checkpoint_every;
        jobs;
      }
    in
    let _ =
      try
        Trainer.train config env policy ~ops ~resume ~callback:(fun s ->
            Format.printf
              "iter %4d | return %7.3f | geomean speedup %9.2fx | best %9.1fx | kl %.4f%s@."
              s.Trainer.iteration s.Trainer.mean_episode_return
              s.Trainer.mean_final_speedup s.Trainer.best_speedup
              s.Trainer.ppo_stats.Ppo.approx_kl
              (if s.Trainer.degraded_measurements > 0 then
                 Printf.sprintf " | degraded %d" s.Trainer.degraded_measurements
               else ""))
      with Invalid_argument msg
        when String.length msg >= 8 && String.sub msg 0 8 = "Trainer:" ->
        (* a corrupt or mismatched checkpoint is a user error, not a bug *)
        Format.eprintf "%s@." msg;
        exit 2
    in
    if Option.is_some faults then begin
      let c = Evaluator.counters evaluator in
      Format.printf
        "@.robust evaluator: %d measurements, %d retries, %d degraded@."
        c.Evaluator.measurements c.Evaluator.retries c.Evaluator.degraded
    end;
    (* Cache counters go to stderr: under --jobs > 1 speculative
       episodes make hit/miss splits scheduling-dependent (the cached
       values are pure, so the training results stay byte-identical),
       and stdout must stay byte-identical across --jobs values. *)
    Format.eprintf "evaluator caches: %s@."
      (Evaluator.render_cache_stats (Evaluator.cache_stats evaluator));
    report_check_stats ();
    Format.printf "@.greedy schedules:@.";
    Array.iteri
      (fun i op ->
        if i < 5 then begin
          let sched, speedup = Trainer.greedy_rollout env policy op in
          Format.printf "  %-40s %9.1fx  %s@." op.Linalg.op_name speedup
            (Schedule.to_string sched)
        end)
      ops;
    match save_path with
    | Some path ->
        Policy.save policy path;
        Format.printf "@.weights saved to %s@." path
    | None -> ()
  in
  let iters = Arg.(value & opt int 30 & info [ "iterations" ] ~doc:"PPO iterations") in
  let hidden = Arg.(value & opt int 64 & info [ "hidden" ] ~doc:"Hidden width") in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Seed") in
  let immediate =
    Arg.(value & flag & info [ "immediate" ] ~doc:"Use the Immediate reward")
  in
  let specs =
    Arg.(value & opt_all string [] & info [ "op" ] ~doc:"Train on specific op specs")
  in
  let save_path =
    Arg.(value & opt (some string) None & info [ "save" ] ~doc:"Save weights to FILE")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ]
          ~doc:
            "Transient-failure probability of the simulated measurement \
             backend (enables the robust evaluator)")
  in
  let fault_seed =
    Arg.(
      value & opt (some int) None
      & info [ "fault-seed" ] ~doc:"Seed of the fault stream (default: seed+31)")
  in
  let noise =
    Arg.(
      value & opt float 0.0
      & info [ "noise" ] ~doc:"Log-normal measurement jitter sigma")
  in
  let checkpoint_path =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ]
          ~doc:"Checkpoint file prefix (writes PREFIX.meta/.params/.optim)")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 5
      & info [ "checkpoint-every" ] ~doc:"Iterations between checkpoints")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the checkpoint at --checkpoint (starts fresh when \
             none exists); the resumed run is deterministic")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for parallel episode collection. Training \
             results are bit-identical for any value (see \
             docs/parallelism.md)")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train the multi-action PPO agent")
    Term.(
      const run $ iters $ hidden $ seed $ immediate $ specs $ save_path
      $ fault_rate $ fault_seed $ noise $ checkpoint_path $ checkpoint_every
      $ resume $ jobs)

(* --- infer --- *)

let infer_cmd =
  let run spec hidden load_path trials jobs seed greedy_only =
    check_jobs jobs;
    let op = op_of_spec spec in
    let cfg = Env_config.default in
    let env = Env.create cfg in
    let rng = Util.Rng.create 0 in
    let policy = Policy.create ~hidden ~backbone_layers:2 rng cfg in
    (match Policy.load policy load_path with
    | Ok () -> ()
    | Error e ->
        Format.eprintf "failed to load %s: %s@." load_path e;
        exit 1);
    Format.printf "checkpoint: %s@." (Digest.to_hex (Digest.file load_path));
    let sched, speedup = Trainer.greedy_rollout env policy op in
    Format.printf "greedy   : %s (%.1fx)@." (Schedule.to_string sched) speedup;
    if trials > 0 && not greedy_only then begin
      let sched_s, speedup_s =
        Trainer.sampled_best ~jobs (Util.Rng.create seed) env policy op ~trials
      in
      Format.printf "best of %d (seed %d): %s (%.1fx)@." trials seed
        (Schedule.to_string sched_s) speedup_s
    end
  in
  let hidden =
    Arg.(value & opt int 64 & info [ "hidden" ] ~doc:"Hidden width used at training")
  in
  let load_path =
    Arg.(
      required
      & opt (some string) None
      & info [ "load" ] ~doc:"Weights file written by train --save")
  in
  let trials =
    Arg.(value & opt int 16 & info [ "trials" ] ~doc:"Sampled rollouts to try")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Worker domains for the sampled trials (same result for any value)")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:
            "Seed of the sampled-trials search. The greedy line and the \
             checkpoint digest never depend on it")
  in
  let greedy_only =
    Arg.(
      value & flag
      & info [ "greedy-only" ]
          ~doc:
            "Skip the sampled search entirely: deterministic output, no rng \
             consumed (what the serving daemon runs per request)")
  in
  Cmd.v
    (Cmd.info "infer" ~doc:"Run a trained agent on one operation")
    Term.(
      const run $ spec_arg $ hidden $ load_path $ trials $ jobs $ seed
      $ greedy_only)

(* --- serve / request: the schedule-serving daemon and its client
   (see docs/serving.md) --- *)

let serve_cmd =
  let run hidden load_path workers max_batch max_queue max_wait_ms
      cache_capacity socket measure_delay_ms jobs =
    check_jobs jobs;
    if max_wait_ms < 0.0 then begin
      Format.eprintf "--max-wait-ms must be >= 0@.";
      exit 2
    end;
    if measure_delay_ms < 0.0 then begin
      Format.eprintf "--measure-delay-ms must be >= 0@.";
      exit 2
    end;
    let engine_cfg =
      {
        Serve.Engine.default_config with
        Serve.Engine.hidden;
        checkpoint = load_path;
        cache_capacity;
        measure_delay_s = measure_delay_ms /. 1000.0;
        jobs;
      }
    in
    let engine =
      match Serve.Engine.create engine_cfg with
      | Ok e -> e
      | Error e ->
          Format.eprintf "cannot start server: %s@." e;
          exit 1
    in
    let config =
      {
        Serve.Server.workers;
        batcher =
          {
            Serve.Batcher.max_queue;
            max_batch;
            max_wait_s = max_wait_ms /. 1000.0;
          };
      }
    in
    let server = Serve.Server.create ~config engine in
    (* Banner on stderr: stdout carries only protocol lines in stdio
       mode. *)
    Format.eprintf
      "mlir-rl serve: policy %s | workers %d | batch <= %d, wait <= %gms, \
       queue <= %d | %s@."
      (Serve.Engine.policy_digest engine)
      workers max_batch max_wait_ms max_queue
      (match socket with
      | Some p -> "unix socket " ^ p
      | None -> "stdio");
    match socket with
    | Some path -> Serve.Frontend.listen_unix server ~path
    | None ->
        Serve.Frontend.serve_channels server stdin stdout;
        Serve.Server.drain server
  in
  let hidden =
    Arg.(value & opt int 64 & info [ "hidden" ] ~doc:"Hidden width used at training")
  in
  let load_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ]
          ~doc:
            "Weights file written by train --save (default: a fixed-seed \
             random-init policy, for smoke tests)")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~doc:"Rollout worker domains")
  in
  let max_batch =
    Arg.(value & opt int 8 & info [ "max-batch" ] ~doc:"Micro-batch size cap")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ]
          ~doc:"Admission bound; beyond it requests are answered overloaded")
  in
  let max_wait_ms =
    Arg.(
      value & opt float 2.0
      & info [ "max-wait-ms" ]
          ~doc:"How long an under-full batch may wait for company")
  in
  let cache_capacity =
    Arg.(
      value & opt int 4096
      & info [ "cache-capacity" ] ~doc:"Result-cache entries")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ]
          ~doc:
            "Serve on a Unix-domain socket at PATH instead of stdin/stdout; \
             runs until killed")
  in
  let measure_delay_ms =
    Arg.(
      value & opt float 0.0
      & info [ "measure-delay-ms" ]
          ~doc:
            "Emulated hardware-measurement time per schedule state the \
             evaluator prices for the first time (a cold nest prices one; \
             cache hits stay instant); models a deployment that times \
             schedules on real hardware")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for chunked batch rollouts (default 1). \
             Results are identical for any value (see docs/parallelism.md)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batched schedule-serving daemon (line protocol on \
          stdin/stdout or a Unix socket)")
    Term.(
      const run $ hidden $ load_path $ workers $ max_batch $ max_queue
      $ max_wait_ms $ cache_capacity $ socket $ measure_delay_ms $ jobs)

let request_cmd =
  let run id spec ir_file stats metrics ping deadline_ms socket timeout_ms =
    let fail msg =
      Format.eprintf "%s@." msg;
      exit 2
    in
    let chosen =
      List.filter
        (fun b -> b)
        [ spec <> None; ir_file <> None; stats; metrics; ping ]
    in
    if List.length chosen <> 1 then
      fail "pick exactly one of --spec, --ir, --stats, --metrics, --ping";
    if timeout_ms <= 0.0 then fail "--timeout-ms must be > 0";
    let req =
      if stats then Serve.Protocol.Stats { id }
      else if metrics then Serve.Protocol.Metrics { id }
      else if ping then Serve.Protocol.Ping { id }
      else
        let target =
          match (spec, ir_file) with
          | Some s, _ -> Serve.Protocol.Spec s
          | None, Some path ->
              if not (Sys.file_exists path) then
                fail (Printf.sprintf "no such file: %s" path);
              let ic = open_in path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              Serve.Protocol.Ir text
          | None, None -> assert false
        in
        Serve.Protocol.Optimize { id; target; deadline_ms }
    in
    match socket with
    | None ->
        (* Encoder mode: print the line for piping into a daemon. *)
        print_endline (Serve.Protocol.encode_request req)
    | Some path -> (
        (* Client mode: one round trip with a connect + reply deadline,
           so a dead or wedged daemon is a typed fast failure, never a
           hang. *)
        match
          Serve.Client.call_once ~socket:path
            ~timeout_s:(timeout_ms /. 1000.0) req
        with
        | Ok resp -> print_endline (Serve.Protocol.encode_response resp)
        | Error err ->
            Format.eprintf "request failed: %s@."
              (Serve.Client.error_to_string err);
            exit 1)
  in
  let id = Arg.(value & opt string "r1" & info [ "id" ] ~doc:"Request id") in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~doc:"Optimize an op spec, e.g. matmul:64x64x64")
  in
  let ir_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "ir" ] ~doc:"Optimize the loop-nest file at PATH (textual IR)")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Ask for server statistics")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Ask for the Prometheus dump")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe") in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~doc:"Per-request deadline in milliseconds")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ]
          ~doc:
            "Send the request to the daemon at this Unix socket and print \
             the reply (default: just print the encoded request line)")
  in
  let timeout_ms =
    Arg.(
      value & opt float 5000.0
      & info [ "timeout-ms" ]
          ~doc:
            "With --socket: fail with a typed error if connecting or the \
             reply takes longer than this")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Encode one serve-protocol request line (pipe it into mlir-rl \
          serve), or send it with --socket")
    Term.(
      const run $ id $ spec $ ir_file $ stats $ metrics $ ping $ deadline_ms
      $ socket $ timeout_ms)

(* --- analyze: dependence analysis, legality verdicts, lint --- *)

let analyze_cmd =
  let nest_of_target target =
    if Sys.file_exists target then begin
      let ic = open_in target in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match Ir_parser.parse_result text with
      | Ok nest -> nest
      | Error e ->
          Format.eprintf "%s: parse error: %s@." target e;
          exit 2
    end
    else Lower.to_loop_nest (op_of_spec target)
  in
  (* Hand-rolled JSON (no external dependency): strings escaped per RFC
     8259, structure emitted directly into a buffer. *)
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let json_of_target target (nest : Loop_nest.t) =
    let b = Buffer.create 1024 in
    let str s = Printf.sprintf "\"%s\"" (json_escape s) in
    let bool v = if v then "true" else "false" in
    let arr items = "[" ^ String.concat "," items ^ "]" in
    let deps = Dependence.analyze nest in
    let leg = Legality.analyze nest in
    let v = Legality.verdicts leg in
    let n = Legality.n_loops leg in
    let bounds = Bounds.analyze nest in
    let fp = Footprint.analyze nest in
    let diags = Nest_lint.run nest in
    Printf.bprintf b "{\"target\":%s,\"name\":%s,\"loops\":%d," (str target)
      (str nest.Loop_nest.name) n;
    Printf.bprintf b "\"trip_counts\":%s,"
      (arr
         (Array.to_list
            (Array.map string_of_int (Loop_nest.trip_counts nest))));
    Printf.bprintf b "\"dependences\":%d," (List.length deps);
    Printf.bprintf b
      "\"legality\":{\"tile\":%s,\"vectorize\":%s,\"unroll\":%s,\"parallelize\":%s,\"interchange\":%s},"
      (bool v.Legality.tile) (bool v.Legality.vectorize)
      (bool v.Legality.unroll)
      (arr (Array.to_list (Array.map bool v.Legality.parallelize)))
      (arr (Array.to_list (Array.map bool v.Legality.interchange)));
    Printf.bprintf b "\"bounds\":{\"checked\":%d,\"violations\":%s},"
      bounds.Bounds.checked
      (arr
         (List.map
            (fun viol -> str (Bounds.violation_to_string viol))
            bounds.Bounds.violations));
    Printf.bprintf b "\"footprint\":{\"levels\":%s,\"reuse\":%s},"
      (arr
         (Array.to_list
            (Array.map
               (fun (l : Footprint.level) -> string_of_int l.Footprint.elements)
               fp.Footprint.levels)))
      (arr
         (List.init n (fun k ->
              string_of_int (Footprint.reuse_distance fp k))));
    Printf.bprintf b "\"diagnostics\":%s}"
      (arr
         (List.map
            (fun (d : Nest_lint.diagnostic) ->
              Printf.sprintf "{\"severity\":%s,\"loc\":%s,\"message\":%s}"
                (str (Nest_lint.severity_label d.Nest_lint.severity))
                (str d.Nest_lint.loc) (str d.Nest_lint.message))
            diags));
    (Buffer.contents b, Nest_lint.has_error diags)
  in
  let analyze_one ~ci target =
    let nest = nest_of_target target in
    Format.printf "=== %s (%s) ===@." target nest.Loop_nest.name;
    Format.printf "%s@." (Ir_printer.to_string nest);
    let deps = Dependence.analyze nest in
    Format.printf "@.dependences (%d):@." (List.length deps);
    if deps = [] then Format.printf "  (none)@."
    else
      List.iter
        (fun d -> Format.printf "  %a@." Dependence.pp_dependence d)
        deps;
    let leg = Legality.analyze nest in
    let v = Legality.verdicts leg in
    let n = Legality.n_loops leg in
    let yn b = if b then "yes" else "no" in
    Format.printf "@.legality:@.";
    Format.printf "  %-22s %s@." "tile (band permutable)" (yn v.Legality.tile);
    Format.printf "  %-22s %s@." "vectorize" (yn v.Legality.vectorize);
    Format.printf "  %-22s %s@." "unroll" (yn v.Legality.unroll);
    for k = 0 to n - 1 do
      Format.printf "  %-22s %-4s%s@."
        (Printf.sprintf "parallelize loop %%%d" k)
        (yn v.Legality.parallelize.(k))
        (if Legality.carries_dependence leg k then "  (carries a dependence)"
         else "")
    done;
    for k = 0 to n - 2 do
      Format.printf "  %-22s %s@."
        (Printf.sprintf "interchange %%%d<->%%%d" k (k + 1))
        (yn v.Legality.interchange.(k))
    done;
    let fp = Footprint.analyze nest in
    Format.printf "@.footprint (distinct elements touched):@.";
    Array.iter
      (fun (l : Footprint.level) ->
        Format.printf "  depth %d: %d%s@." l.Footprint.depth
          l.Footprint.elements
          (if l.Footprint.depth = 0 then "  (whole nest)"
           else if l.Footprint.depth = n then "  (one body execution)"
           else ""))
      fp.Footprint.levels;
    for k = 0 to n - 1 do
      Format.printf "  reuse distance loop %%%d: %d@." k
        (Footprint.reuse_distance fp k)
    done;
    let diags = Nest_lint.run nest in
    Format.printf "@.lint (%d):@." (List.length diags);
    if diags = [] then Format.printf "  (clean)@."
    else
      List.iter
        (fun d -> Format.printf "  %a@." Nest_lint.pp_diagnostic d)
        diags;
    Format.printf "@.";
    if ci && Nest_lint.has_error diags then begin
      Format.eprintf "%s: lint reported Error-severity diagnostics@." target;
      exit 1
    end
  in
  let run targets ci json =
    if json then begin
      (* Machine-readable mode: one JSON array on stdout, nothing else.
         All targets are analyzed (and printed) before --ci exits. *)
      let results =
        List.map (fun t -> json_of_target t (nest_of_target t)) targets
      in
      print_string
        ("[" ^ String.concat ",\n" (List.map fst results) ^ "]\n");
      if ci && List.exists snd results then exit 1
    end
    else List.iter (analyze_one ~ci) targets
  in
  let targets_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "An op spec (matmul:64x64x64) or a path to a loop-nest file in \
             the textual IR syntax")
  in
  let ci_arg =
    Arg.(
      value & flag
      & info [ "ci" ]
          ~doc:"Exit non-zero when lint reports an Error-severity diagnostic")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON array on stdout (diagnostics, legality verdicts, \
             bounds report, footprint summary) instead of the human-readable \
             report")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Print dependences, direction vectors, per-action legality, bounds, \
          footprint and lint diagnostics for operations or loop-nest files"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "Exit codes are stable and suitable for CI gating: $(b,0) — \
              every target analyzed and (with $(b,--ci)) no Error-severity \
              diagnostics; $(b,1) — $(b,--ci) was given and at least one \
              target has an Error-severity diagnostic (in $(b,--json) mode \
              the full array is still printed first); $(b,2) — a target \
              failed to parse (bad op spec or IR file).";
         ])
    Term.(const run $ targets_arg $ ci_arg $ json_arg)

(* --- play: interactive environment session --- *)

let play_cmd =
  let run spec immediate =
    let op = op_of_spec spec in
    let cfg =
      if immediate then Env_config.with_reward_mode Env_config.Immediate Env_config.default
      else Env_config.default
    in
    let env = Env.create cfg in
    ignore (Env.reset env op);
    Format.printf "%s@.@." (Env.render env);
    Format.printf
      "enter transformations (e.g. \"P(32,32,0)\", \"T(0,8,8)\", \"S(1)\", \"C\", \"V\"),@.\
       or: obs | mask | ir | quit@.@.";
    let finished = ref false in
    (try
       while not !finished do
         Format.printf "> %!";
         let line = String.trim (input_line stdin) in
         match line with
         | "" -> ()
         | "quit" | "q" | "exit" -> raise Exit
         | "ir" ->
             Format.printf "%s@."
               (Ir_printer.to_string (Env.state env).Sched_state.nest)
         | "obs" ->
             let obs = Observation.extract cfg (Env.state env) in
             Format.printf "observation (%d floats): [" (Array.length obs);
             Array.iteri
               (fun i v -> if i < 24 then Format.printf "%s%.3f" (if i > 0 then "; " else "") v)
               obs;
             Format.printf "; ...]@."
         | "mask" ->
             let m = Env.masks env in
             Format.printf "transformations: [%s]@."
               (String.concat "; "
                  (List.mapi
                     (fun i b ->
                       Printf.sprintf "%s=%b" (Action_space.transformation_label i) b)
                     (Array.to_list m.Action_space.t_mask)))
         | _ -> (
             match Schedule.of_string line with
             | Error e -> Format.printf "parse error: %s@." e
             | Ok [] -> ()
             | Ok (tr :: _) ->
                 let r = Env.step env (Some tr) in
                 Format.printf "reward %.4f%s%s%s@.@.%s@.@." r.Env.reward
                   (if r.Env.invalid then " (INVALID)" else "")
                   (if r.Env.timed_out then " (TIMEOUT)" else "")
                   (match r.Env.error with
                   | Some e -> " [" ^ Env_error.to_string e ^ "]"
                   | None -> "")
                   (Env.render env);
                 if r.Env.terminal then begin
                   Format.printf "episode over: final speedup %.2fx@."
                     (Env.current_speedup env);
                   finished := true
                 end)
       done
     with Exit | End_of_file -> ());
    Format.printf "bye.@."
  in
  let immediate =
    Arg.(value & flag & info [ "immediate" ] ~doc:"Show Immediate rewards per step")
  in
  Cmd.v
    (Cmd.info "play"
       ~doc:"Drive the RL environment interactively, one transformation at a time")
    Term.(const run $ spec_arg $ immediate)

(* --- surrogate --- *)

let machine_of_name name =
  match String.lowercase_ascii name with
  | "e5_2680_v4" | "xeon" -> Machine.e5_2680_v4
  | "avx512" | "avx512_server" -> Machine.avx512_server
  | "mobile" | "mobile_quad" -> Machine.mobile_quad
  | other ->
      Format.eprintf
        "unknown machine %S (try e5_2680_v4, avx512_server, mobile_quad)@."
        other;
      exit 2

let log_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "log" ] ~docv:"PATH" ~doc:"Evaluation log (surrogate-log v1)")

let surrogate_collect_cmd =
  let run out seed n_ops budget machine_name =
    let machine = machine_of_name machine_name in
    let ev = Evaluator.create ~machine () in
    let log = Surrogate.Dataset_log.create () in
    Surrogate.Dataset_log.attach log ev;
    let split = Generator.generate ~seed () in
    let ops =
      Array.sub split.Generator.train 0
        (min n_ops (Array.length split.Generator.train))
    in
    let config =
      { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
    in
    Array.iteri
      (fun i op ->
        let r = Auto_scheduler.search ~config ev op in
        Format.eprintf "[%d/%d] %s: explored %d, log size %d@." (i + 1)
          (Array.length ops)
          (Option.value ~default:op.Linalg.op_name (Op_spec.to_spec op))
          r.Auto_scheduler.explored
          (Surrogate.Dataset_log.length log))
      ops;
    Surrogate.Dataset_log.detach ev;
    let rows = Surrogate.Dataset_log.save log ~path:out in
    let s = Surrogate.Dataset_log.stats log in
    Format.printf
      "collected %d entries (%d duplicates deduped, %d rotated out); %s now \
       holds %d rows@."
      s.Surrogate.Dataset_log.added s.Surrogate.Dataset_log.duplicates
      s.Surrogate.Dataset_log.rotated out rows
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Log file to write (merged with existing rows)")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Dataset generator seed")
  in
  let ops_arg =
    Arg.(value & opt int 12 & info [ "ops" ] ~doc:"How many dataset ops to search")
  in
  let budget_arg =
    Arg.(value & opt int 400 & info [ "budget" ] ~doc:"Search budget per op")
  in
  let machine_arg =
    Arg.(
      value
      & opt string "e5_2680_v4"
      & info [ "machine" ] ~doc:"Machine profile to price on")
  in
  Cmd.v
    (Cmd.info "collect"
       ~doc:
         "Run exact searches over dataset ops with the evaluation tap on and \
          append the measurements to a log")
    Term.(const run $ out_arg $ seed_arg $ ops_arg $ budget_arg $ machine_arg)

let parse_hidden s =
  let parts = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
  let dims = List.filter_map int_of_string_opt parts in
  if List.length dims <> List.length parts || dims = [] then begin
    Format.eprintf "bad --hidden %S (want e.g. 24,12)@." s;
    exit 2
  end;
  dims

let load_log_or_die path =
  match Surrogate.Dataset_log.load ~path with
  | Error e ->
      Format.eprintf "cannot load log %s: %s@." path e;
      exit 1
  | Ok log -> Surrogate.Dataset_log.entries log

let surrogate_train_cmd =
  let run log_path out hidden epochs batch_size lr seed =
    let entries = load_log_or_die log_path in
    let model = Surrogate.Model.create ~hidden:(parse_hidden hidden) ~seed () in
    let r =
      Surrogate.Model.fit ~epochs ~batch_size ~learning_rate:lr ~seed model
        entries
    in
    Format.printf "examples      : %d (%d train / %d val)@."
      r.Surrogate.Model.examples r.Surrogate.Model.train_examples
      r.Surrogate.Model.val_examples;
    Array.iteri
      (fun e (tl : float) ->
        Format.eprintf "epoch %2d: train mse %.5f  val mse %.5f@." (e + 1) tl
          r.Surrogate.Model.val_losses.(e))
      r.Surrogate.Model.train_losses;
    Format.printf "val mse       : %.5f -> %.5f@."
      r.Surrogate.Model.initial_val_loss
      r.Surrogate.Model.val_losses.(r.Surrogate.Model.epochs_run - 1);
    Format.printf "val spearman  : %.3f@." r.Surrogate.Model.spearman;
    Surrogate.Model.save model ~path:out;
    Format.printf "checkpoint    : %s@." out
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"CKPT" ~doc:"Checkpoint file to write")
  in
  let hidden_arg =
    Arg.(value & opt string "24,12" & info [ "hidden" ] ~doc:"Hidden layer dims")
  in
  let epochs_arg =
    Arg.(value & opt int 40 & info [ "epochs" ] ~doc:"Training epochs")
  in
  let batch_arg =
    Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Minibatch size")
  in
  let lr_arg =
    Arg.(value & opt float 1e-3 & info [ "lr" ] ~doc:"Adam learning rate")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Init and shuffle seed")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Train the latency surrogate on an evaluation log (deterministic)")
    Term.(
      const run $ log_arg $ out_arg $ hidden_arg $ epochs_arg $ batch_arg
      $ lr_arg $ seed_arg)

let surrogate_eval_cmd =
  let run log_path ckpt =
    let entries = load_log_or_die log_path in
    match Surrogate.Model.load ~path:ckpt with
    | Error e ->
        Format.eprintf "cannot load checkpoint %s: %s@." ckpt e;
        exit 1
    | Ok model ->
        let train, validation = Surrogate.Model.split entries in
        Format.printf "examples      : %d (%d train / %d val)@."
          (Array.length entries) (Array.length train)
          (Array.length validation);
        Format.printf "train mse     : %.5f@."
          (Surrogate.Model.eval_loss model train);
        Format.printf "val mse       : %.5f@."
          (Surrogate.Model.eval_loss model validation);
        Format.printf "val spearman  : %.3f@."
          (Surrogate.Model.spearman model
             (if Array.length validation >= 2 then validation else entries))
  in
  let ckpt_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "ckpt" ] ~docv:"CKPT" ~doc:"Checkpoint to evaluate")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Score a trained surrogate against an evaluation log")
    Term.(const run $ log_arg $ ckpt_arg)

let surrogate_cmd =
  Cmd.group
    (Cmd.info "surrogate"
       ~doc:
         "Learned cost-model surrogate: collect evaluation logs, train the \
          latency predictor, evaluate checkpoints")
    [ surrogate_collect_cmd; surrogate_train_cmd; surrogate_eval_cmd ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "mlir-rl" ~version:"1.0.0"
             ~doc:"RL environment for automatic code optimization in a mini-MLIR")
          ~default
          [
            show_cmd; schedule_cmd; features_cmd; analyze_cmd; autoschedule_cmd;
            compare_cmd; dataset_cmd; train_cmd; infer_cmd; serve_cmd;
            request_cmd; play_cmd; surrogate_cmd;
          ]))
