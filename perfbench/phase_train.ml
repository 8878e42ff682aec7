(* Training phase: seeded PPO with the CLI defaults (hidden 64, two
   backbone layers, Final reward, 30 iterations, seed 0) on the training
   ops, at jobs 1 and again at jobs 2, then a greedy rollout of the
   jobs-1 agent over the validation ops. *)

let iterations = 30
let hidden = 64
let cli_seed = 0

type pass = {
  wall_s : float;
  iter_s : float list;  (** wall of each iteration, collection and update *)
  cpu_s : float;
  episodes : int;
  digest : string;
  trajectory : (int * float) list;
      (** per iteration: cumulative episodes, geomean final speedup *)
  env : Env.t;
  policy : Policy.t;
}

let stat_line (s : Trainer.iteration_stats) =
  Printf.sprintf "%d %h %h %h %h %d %d %d" s.Trainer.iteration
    s.Trainer.mean_episode_return s.Trainer.mean_final_speedup
    s.Trainer.best_speedup s.Trainer.measurement_seconds
    s.Trainer.schedules_explored s.Trainer.degraded_measurements
    s.Trainer.episodes

let fresh_agent () =
  let cfg = Env_config.default in
  let env =
    Env.create ~evaluator:(Evaluator.create ~machine:cfg.Env_config.machine ()) cfg
  in
  (env, Policy.create ~hidden ~backbone_layers:2 (Util.Rng.create cli_seed) cfg)

let train_pass ~jobs ops =
  let env, policy = fresh_agent () in
  let config =
    { Trainer.default_config with Trainer.iterations; seed = cli_seed; jobs }
  in
  let cpu0 = Phase_search.cpu_seconds () in
  let t0 = Span.now_ns () in
  let ticks = ref [ t0 ] in
  let stats =
    Span.with_span ~layer:"core" "Trainer.train" (fun () ->
        Trainer.train
          ~callback:(fun _ -> ticks := Span.now_ns () :: !ticks)
          config env policy ~ops)
  in
  let wall_s = Phase_search.ms_of_ns (Int64.sub (Span.now_ns ()) t0) /. 1e3 in
  let rec gaps = function
    | later :: (earlier :: _ as rest) ->
        (Phase_search.ms_of_ns (Int64.sub later earlier) /. 1e3) :: gaps rest
    | _ -> []
  in
  {
    wall_s;
    iter_s = List.rev (gaps !ticks);
    cpu_s = Phase_search.cpu_seconds () -. cpu0;
    episodes =
      (match List.rev stats with [] -> 0 | s :: _ -> s.Trainer.episodes);
    digest =
      Digest.to_hex (Digest.string (String.concat "\n" (List.map stat_line stats)));
    trajectory =
      List.map (fun s -> (s.Trainer.episodes, s.Trainer.mean_final_speedup)) stats;
    env;
    policy;
  }

let greedy_speedups (p : pass) ops =
  Array.to_list
    (Array.map (fun op -> snd (Trainer.greedy_rollout p.env p.policy op)) ops)

(* The first of several runs, timed by each iteration's fastest wall
   over all of them — every run must reproduce the first one's iteration
   statistics, so iteration [k] does the same work in each, and a shared
   host only ever slows an iteration down (as the search keeps each op's
   fastest wall). *)
let fastest_run ~jobs = function
  | [] -> invalid_arg "Phase_train.fastest_run"
  | first :: rest ->
      List.iter
        (fun p ->
          Report.check
            (Printf.sprintf "train: jobs %d repeat differs" jobs)
            (p.digest = first.digest))
        rest;
      let iter_s =
        List.fold_left (fun m p -> List.map2 Float.min m p.iter_s) first.iter_s rest
      in
      { first with iter_s; wall_s = List.fold_left ( +. ) 0.0 iter_s }

(* Training throughput in PPO iterations — each one collects at least a
   batch of transitions and updates on it — per second: a user asking for
   [--iterations N] waits N over it. Episodes per second would also move
   with the seed, since the episode length depends on the training ops
   drawn, while an iteration's work is about the same on every draw. *)
let end_to_end ~j1 ~j2 =
  Report.add "train.iters_per_s" "1/s" (float_of_int iterations /. j1.wall_s);
  Report.add "train.iters_per_s.j2" "1/s" (float_of_int iterations /. j2.wall_s)

(* Replay of [Trainer.train]'s jobs-1 run through the core and rl
   layers' public functions, one span per [Policy.act_batch],
   [Env.step_hierarchical] and [Ppo.update] call. It follows the
   trainer's documented schedule: episode [i] draws its op and actions
   from the first split of [Util.Rng.derive seed ~stream:i] and its
   measurement noise from the second; each wave of at most
   [inference_batch] episodes plays in lockstep on fresh [Env.fork]s;
   episodes are consumed in index order until the batch is full and the
   rest are replayed next iteration; the update shuffles from stream -1.
   The replay returns each iteration's episode count and geomean final
   speedup, which the caller checks against the real run's statistics,
   so a drift between the two loops fails the run. *)
let slab = Trainer.default_config.Trainer.inference_batch

let play env policy ops ~lo ~hi =
  let count = hi - lo in
  let nslots = min slab count in
  let envs = Array.init nslots (fun _ -> Env.fork env) in
  let rngs = Array.make nslots (Util.Rng.create 0) in
  let obs = Array.make nslots [||] in
  let idxs = Array.make nslots 0 in
  let acc = Array.make nslots [] in
  let active = Array.make nslots false in
  let out = Array.make count ([||], 0.0) in
  let next = ref lo in
  let start s =
    if !next < hi then begin
      let master = Util.Rng.derive cli_seed ~stream:!next in
      let action_rng = Util.Rng.split master in
      Evaluator.set_noise_state (Env.evaluator envs.(s))
        (Util.Rng.state (Util.Rng.split master));
      obs.(s) <- Env.reset envs.(s) (Util.Rng.choice action_rng ops);
      rngs.(s) <- action_rng;
      idxs.(s) <- !next;
      acc.(s) <- [];
      active.(s) <- true;
      incr next
    end
  in
  for s = 0 to nslots - 1 do
    start s
  done;
  while Array.exists Fun.id active do
    let live =
      Array.of_list (List.filter (fun s -> active.(s)) (List.init nslots Fun.id))
    in
    let live_obs = Array.map (fun s -> obs.(s)) live in
    let masks = Array.map (fun s -> Env.masks envs.(s)) live in
    let acts =
      Span.with_span ~calls:(Array.length live) ~layer:"core" "Policy.act_batch"
        (fun () ->
          Policy.act_batch (Array.map (fun s -> rngs.(s)) live) policy
            ~obs:live_obs ~masks)
    in
    Array.iteri
      (fun k (action, log_prob, value) ->
        let s = live.(k) in
        let r =
          Span.with_span ~layer:"core" "Env.step_hierarchical" (fun () ->
              Env.step_hierarchical envs.(s) action)
        in
        acc.(s) <-
          {
            Ppo.sample =
              { Policy.s_obs = live_obs.(k); s_action = action; s_masks = masks.(k) };
            reward = r.Env.reward;
            value;
            log_prob;
            terminal = r.Env.terminal;
          }
          :: acc.(s);
        obs.(s) <- r.Env.obs;
        if r.Env.terminal then begin
          out.(idxs.(s) - lo) <-
            (Array.of_list (List.rev acc.(s)), Env.current_speedup envs.(s));
          active.(s) <- false;
          start s
        end)
      acts
  done;
  out

let replay ops =
  let env, policy = fresh_agent () in
  let ppo = Trainer.default_config.Trainer.ppo in
  let optimizer = Optim.adam ~lr:ppo.Ppo.learning_rate (Policy.params policy) in
  let ppo_policy = Policy.ppo_policy policy in
  let update_rng = Util.Rng.derive cli_seed ~stream:(-1) in
  let episodes = ref 0 and consumed_steps = ref 0 in
  List.init iterations (fun _ ->
      let queue = Queue.create () in
      let batch = ref [] and speedups = ref [] and n_steps = ref 0 in
      let next_index = ref !episodes in
      while !n_steps < ppo.Ppo.batch_size do
        if Queue.is_empty queue then begin
          let est =
            if !episodes = 0 then 2.0
            else float_of_int !consumed_steps /. float_of_int !episodes
          in
          let remaining = float_of_int (ppo.Ppo.batch_size - !n_steps) in
          let wave = max 1 (min slab (int_of_float (Float.ceil (remaining /. est)))) in
          Array.iter
            (fun ep -> Queue.push ep queue)
            (play env policy ops ~lo:!next_index ~hi:(!next_index + wave));
          next_index := !next_index + wave
        end;
        let steps, speedup = Queue.pop queue in
        batch := steps :: !batch;
        speedups := Float.max 1e-9 speedup :: !speedups;
        n_steps := !n_steps + Array.length steps;
        consumed_steps := !consumed_steps + Array.length steps;
        incr episodes
      done;
      let transitions = Array.concat (List.rev !batch) in
      ignore
        (Span.with_span ~layer:"rl" "Ppo.update" (fun () ->
             Ppo.update ppo ppo_policy optimizer transitions ~rng:update_rng));
      (!episodes, Util.Stats.geomean !speedups))

(* The replay must walk the same trajectory as the real run. *)
let check_replay (p : pass) trajectory =
  Report.check "train replay: trajectory differs from Trainer.train"
    (trajectory = p.trajectory)

(* [rl.ppo_update.share] is the replay's update time over the real
   jobs-1 [Trainer.train] wall: the two walk the same trajectory, so the
   updates do the same work. *)
let per_layer ~train_wall_s ~val_speedups =
  Report.add "train.val_speedup_geomean" "x" (Util.Stats.geomean val_speedups);
  let step = Span.totals "Env.step_hierarchical" in
  Report.add "env.step.us" "us" (Span.per_call ~unit_ns:1e3 "Env.step_hierarchical");
  Report.add "env.step.calls" "count" (float_of_int step.Span.calls);
  let act = Span.totals "Policy.act_batch" in
  Report.add "policy.act_batch.us_per_row" "us"
    (Span.per_call ~unit_ns:1e3 "Policy.act_batch");
  Report.add "policy.act_batch.rows_per_call" "count"
    (float_of_int act.Span.calls /. float_of_int (max 1 act.Span.spans));
  let ppo = Span.totals "Ppo.update" in
  Report.add "rl.ppo_update.ms" "ms" (Span.per_span ~unit_ns:1e6 "Ppo.update");
  Report.add "rl.ppo_update.calls" "count" (float_of_int ppo.Span.spans);
  Report.add "rl.ppo_update.share" "ratio" (ppo.Span.ns /. (train_wall_s *. 1e9))
