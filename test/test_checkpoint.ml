(* Crash-recoverable training: checkpoint save/restore roundtrips, and
   the determinism guarantee — k iterations + resume for the rest must
   reproduce an uninterrupted run bit for bit, with and without an
   injected-fault backend. *)

let tmp_prefix name =
  Filename.concat (Filename.get_temp_dir_name ()) ("mlir_rl_ckpt_" ^ name)

let cleanup path =
  List.iter
    (fun ext -> try Sys.remove (path ^ ext) with Sys_error _ -> ())
    [ ".meta"; ".params"; ".optim" ]

let small_ops = [| Linalg.matmul ~m:8 ~n:12 ~k:16 (); Linalg.add [| 32; 32 |] |]

let train_config ?checkpoint_path ?(checkpoint_every = 2) ~iterations () =
  {
    Trainer.default_config with
    Trainer.iterations;
    seed = 42;
    checkpoint_path;
    checkpoint_every;
  }

let fresh_setup ?(faults = false) () =
  let cfg = Env_config.default in
  let env =
    if faults then begin
      let f = Faults.create ~config:(Faults.flaky ~rate:0.15 ()) ~seed:8 () in
      Env.create ~evaluator:(Evaluator.create ~faults:f ()) cfg
    end
    else Env.create cfg
  in
  let policy = Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 42) cfg in
  (env, policy)

let stats_key (s : Trainer.iteration_stats) =
  Printf.sprintf "%d %.9e %.9e %.9e %.9e %d %d" s.Trainer.iteration
    s.Trainer.mean_episode_return s.Trainer.mean_final_speedup
    s.Trainer.best_speedup s.Trainer.measurement_seconds
    s.Trainer.schedules_explored s.Trainer.degraded_measurements

let copy_weights params =
  List.map (fun (p : Autodiff.Param.t) -> Tensor.copy p.Autodiff.Param.data) params

let restore_weights params snapshot =
  List.iter2
    (fun (p : Autodiff.Param.t) snap ->
      for i = 0 to Tensor.numel snap - 1 do
        Tensor.set p.Autodiff.Param.data i (Tensor.get snap i)
      done)
    params snapshot

let weights_equal a b =
  List.for_all2
    (fun x y ->
      let n = Tensor.numel x in
      let ok = ref (n = Tensor.numel y) in
      for i = 0 to n - 1 do
        if Tensor.get x i <> Tensor.get y i then ok := false
      done;
      !ok)
    a b

let test_meta_roundtrip () =
  let path = tmp_prefix "meta" in
  let cfg = Env_config.default in
  let policy = Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 1) cfg in
  let params = Policy.params policy in
  let optimizer = Optim.adam ~lr:1e-3 params in
  let meta =
    {
      Checkpoint.iteration = 7;
      rng_state = 0xdeadbeefL;
      episodes = 58;
      best_speedup = 12.5;
      measurement_seconds = 321.75;
      counters =
        { Evaluator.explored = 99; measurements = 41; retries = 12; degraded = 3 };
      noise_state = -1L;
      fault_state = Some (42L, 17);
    }
  in
  Checkpoint.save ~path meta ~params ~optimizer;
  Alcotest.(check bool) "exists" true (Checkpoint.exists ~path);
  (match Checkpoint.load_meta ~path with
  | Error e -> Alcotest.fail e
  | Ok m -> Alcotest.(check bool) "meta roundtrips" true (m = meta));
  cleanup path

let test_meta_without_counter_keys () =
  (* v2 files written before the measurements/retries keys existed
     still load, with both counters read as 0. *)
  let path = tmp_prefix "old_meta" in
  let oc = open_out (path ^ ".meta") in
  output_string oc
    "mlir-rl-checkpoint v2\niteration 2\nrng_state 5\nepisodes 9\n\
     best_speedup 0x1p+1\nmeasurement_seconds 0x1p+3\nexplored 40\n\
     degraded 1\nnoise_state 7\nfault_state none\n";
  close_out oc;
  (match Checkpoint.load_meta ~path with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check bool) "counters" true
        (m.Checkpoint.counters
        = { Evaluator.explored = 40; measurements = 0; retries = 0; degraded = 1 }));
  cleanup path

let test_restore_rejects_garbage () =
  let path = tmp_prefix "garbage" in
  let oc = open_out (path ^ ".meta") in
  output_string oc "not a checkpoint\n";
  close_out oc;
  Alcotest.(check bool) "corrupt meta rejected" true
    (Result.is_error (Checkpoint.load_meta ~path));
  cleanup path

let test_optim_state_roundtrip () =
  (* Take two Adam steps, save; a third step from the saved point must
     land on the same weights whether the moments come from memory or
     from the reloaded file. *)
  let path = tmp_prefix "optim" ^ ".optim" in
  let cfg = Env_config.default in
  let policy = Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 5) cfg in
  let params = Policy.params policy in
  let optimizer = Optim.adam ~lr:1e-2 params in
  let poke () =
    List.iter
      (fun (p : Autodiff.Param.t) ->
        let g = p.Autodiff.Param.grad in
        for i = 0 to Tensor.numel g - 1 do
          Tensor.set g i 0.01
        done)
      params;
    Optim.step optimizer
  in
  poke ();
  poke ();
  Optim.save optimizer path;
  let w2 = copy_weights params in
  poke ();
  let expected = copy_weights params in
  restore_weights params w2;
  (match Optim.load optimizer path with Error e -> Alcotest.fail e | Ok () -> ());
  poke ();
  Alcotest.(check bool) "third step reproduced after reload" true
    (weights_equal expected (copy_weights params));
  Sys.remove path

let counters env = Evaluator.counters (Env.evaluator env)

let run_straight ?(faults = false) ~iterations () =
  let env, policy = fresh_setup ~faults () in
  let stats =
    Trainer.train (train_config ~iterations ()) env policy ~ops:small_ops
  in
  (List.map stats_key stats, Policy.params policy, counters env)

let run_interrupted ?(faults = false) ~iterations ~kill_after () =
  let path = tmp_prefix (if faults then "resume_f" else "resume") in
  cleanup path;
  (* Phase 1: train kill_after iterations checkpointing every
     iteration, then "crash" (drop everything on the floor). *)
  let env1, policy1 = fresh_setup ~faults () in
  let first =
    Trainer.train
      (train_config ~checkpoint_path:path ~checkpoint_every:1
         ~iterations:kill_after ())
      env1 policy1 ~ops:small_ops
  in
  (* Phase 2: fresh process state, resume from the checkpoint. *)
  let env2, policy2 = fresh_setup ~faults () in
  let rest =
    Trainer.train ~resume:true
      (train_config ~checkpoint_path:path ~checkpoint_every:1 ~iterations ())
      env2 policy2 ~ops:small_ops
  in
  cleanup path;
  ( List.map stats_key first @ List.map stats_key rest,
    Policy.params policy2,
    counters env2 )

let check_identical ~faults () =
  let iterations = 6 and kill_after = 3 in
  let straight, w_straight, _ = run_straight ~faults ~iterations () in
  let resumed, w_resumed, _ =
    run_interrupted ~faults ~iterations ~kill_after ()
  in
  Alcotest.(check int) "same number of iteration stats" iterations
    (List.length resumed);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "iteration %d stats" (i + 1)) a b)
    (List.combine straight resumed);
  Alcotest.(check bool) "final weights identical" true
    (Serialize.params_equal w_straight w_resumed)

let test_resume_identical_clean () = check_identical ~faults:false ()
let test_resume_identical_faulty () = check_identical ~faults:true ()

let test_resume_keeps_counters () =
  (* The evaluator's measurement/retry/degraded counters survive a
     resume: the resumed run ends on the straight run's record. *)
  let _, _, straight = run_straight ~faults:true ~iterations:4 () in
  let _, _, resumed =
    run_interrupted ~faults:true ~iterations:4 ~kill_after:2 ()
  in
  Alcotest.(check bool) "retries happened" true (straight.Evaluator.retries > 0);
  Alcotest.(check (list int)) "explored, measurements, retries, degraded"
    [ straight.Evaluator.explored; straight.Evaluator.measurements;
      straight.Evaluator.retries; straight.Evaluator.degraded ]
    [ resumed.Evaluator.explored; resumed.Evaluator.measurements;
      resumed.Evaluator.retries; resumed.Evaluator.degraded ]

let test_resume_missing_checkpoint_starts_fresh () =
  let path = tmp_prefix "missing" in
  cleanup path;
  let env, policy = fresh_setup () in
  let stats =
    Trainer.train ~resume:true
      (train_config ~checkpoint_path:path ~iterations:2 ())
      env policy ~ops:small_ops
  in
  Alcotest.(check int) "ran from scratch" 2 (List.length stats);
  cleanup path

let test_resume_without_path_rejected () =
  let env, policy = fresh_setup () in
  Alcotest.check_raises "resume without checkpoint_path"
    (Invalid_argument "Trainer: resume requested without a checkpoint_path")
    (fun () ->
      ignore
        (Trainer.train ~resume:true
           (train_config ~iterations:1 ())
           env policy ~ops:small_ops))

let test_checkpoint_files_written () =
  let path = tmp_prefix "files" in
  cleanup path;
  let env, policy = fresh_setup () in
  ignore
    (Trainer.train
       (train_config ~checkpoint_path:path ~checkpoint_every:2 ~iterations:3 ())
       env policy ~ops:small_ops);
  List.iter
    (fun ext ->
      Alcotest.(check bool) (ext ^ " written") true (Sys.file_exists (path ^ ext)))
    [ ".meta"; ".params"; ".optim" ];
  (match Checkpoint.load_meta ~path with
  | Error e -> Alcotest.fail e
  | Ok m ->
      (* checkpoint_every=2 over 3 iterations: saved at 2 and at the
         final iteration. *)
      Alcotest.(check int) "meta records last iteration" 3 m.Checkpoint.iteration);
  cleanup path

let suite =
  [
    Alcotest.test_case "meta roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "meta without counter keys loads" `Quick
      test_meta_without_counter_keys;
    Alcotest.test_case "corrupt meta rejected" `Quick test_restore_rejects_garbage;
    Alcotest.test_case "optimizer state roundtrip" `Quick test_optim_state_roundtrip;
    Alcotest.test_case "kill+resume = straight run (clean)" `Slow
      test_resume_identical_clean;
    Alcotest.test_case "kill+resume = straight run (faulty backend)" `Slow
      test_resume_identical_faulty;
    Alcotest.test_case "kill+resume keeps evaluator counters" `Slow
      test_resume_keeps_counters;
    Alcotest.test_case "resume with no checkpoint starts fresh" `Quick
      test_resume_missing_checkpoint_starts_fresh;
    Alcotest.test_case "resume without path rejected" `Quick
      test_resume_without_path_rejected;
    Alcotest.test_case "checkpoint files written" `Quick
      test_checkpoint_files_written;
  ]
