type config = {
  ppo : Ppo.config;
  iterations : int;
  seed : int;
  checkpoint_path : string option;
  checkpoint_every : int;
  jobs : int;
  inference_batch : int;
}

let default_config =
  {
    ppo = Ppo.default_config;
    iterations = 50;
    seed = 0;
    checkpoint_path = None;
    checkpoint_every = 10;
    jobs = 1;
    inference_batch = 8;
  }

type iteration_stats = {
  iteration : int;
  mean_episode_return : float;
  mean_final_speedup : float;
  best_speedup : float;
  ppo_stats : Ppo.stats;
  measurement_seconds : float;
  schedules_explored : int;
  degraded_measurements : int;
  episodes : int;
}

(* -- determinism contract ------------------------------------------------

   Every random stream is derived purely from (config.seed, a stream
   id), never from "whatever the shared rng happened to contain":

   - episode [i] (a global, checkpointed counter) draws everything —
     op choice, action sampling, measurement jitter, fault injection —
     from [Util.Rng.derive seed ~stream:i] and its splits;
   - the PPO minibatch shuffle uses the reserved stream id below.

   Workers collect contiguous episode-index ranges and the main domain
   consumes results in strictly increasing index order, so the training
   trajectory is a pure function of the seed: any [jobs] value produces
   bit-identical iterations and checkpoints (docs/parallelism.md). *)

let update_stream = -1

(* Per-episode stream bundle. The split order is part of the on-disk
   determinism contract (checkpoints record episode indices, and a
   resume re-derives these streams), so never reorder the splits. *)
let episode_streams seed index =
  let master = Util.Rng.derive seed ~stream:index in
  let action_rng = Util.Rng.split master in
  let noise_state = Util.Rng.state (Util.Rng.split master) in
  let fault_state = Util.Rng.state (Util.Rng.split master) in
  (action_rng, noise_state, fault_state)

let checkpoint_meta env rng ~iteration ~episodes ~best =
  {
    Checkpoint.iteration;
    rng_state = Util.Rng.state rng;
    episodes;
    best_speedup = best;
    measurement_seconds = Env.measurement_seconds env;
    counters = Evaluator.counters (Env.evaluator env);
    noise_state = Evaluator.noise_state (Env.evaluator env);
    fault_state = Option.map Faults.state (Evaluator.faults (Env.evaluator env));
  }

(* One collected episode plus the forked environment it ran on, whose
   accounting the main domain merges when (and only when) it consumes
   the episode: the accounting of speculative episodes that end up
   discarded must never leak into the shared counters, or the totals
   would depend on [jobs]. *)
type 'sample episode_out = {
  ep_steps : 'sample Ppo.transition array;
  ep_return : float;
  ep_speedup : float;
  ep_env : Env.t;
}

(* A fresh fork positioned on episode/trial streams: zeroed accounting,
   so after the episode it holds exactly that episode's deltas. *)
let episode_env env_proto ~noise_state ~fault_state =
  let env = Env.fork env_proto in
  let ev = Env.evaluator env in
  Evaluator.set_noise_state ev noise_state;
  Option.iter (fun f -> Faults.restore f (fault_state, 0)) (Evaluator.faults ev);
  env

(* Play episodes [lo, hi) on one worker, advancing up to [slab] of them
   in lockstep so [step_slab] can batch the policy forward pass. Each
   episode's rng streams come from its global index, so the slot / slab
   / worker assignment cannot influence its trajectory. *)
let play_chunk ~env_proto ~seed ~ops ~slab ~step_slab ~lo ~hi =
  let count = hi - lo in
  let out = Array.make count None in
  let nslots = min slab count in
  (* Every slot gets its own episode fork in [start] before use. *)
  let envs = Array.make nslots env_proto in
  let rngs = Array.make nslots (Util.Rng.create 0) in
  let obs = Array.make nslots [||] in
  let idxs = Array.make nslots (-1) in
  let steps_acc = Array.make nslots [] in
  let returns = Array.make nslots 0.0 in
  let active = Array.make nslots false in
  let next = ref lo in
  let start s =
    if !next < hi then begin
      let idx = !next in
      incr next;
      let action_rng, noise_state, fault_state = episode_streams seed idx in
      let env = episode_env env_proto ~noise_state ~fault_state in
      envs.(s) <- env;
      let op = Util.Rng.choice action_rng ops in
      obs.(s) <- Env.reset env op;
      rngs.(s) <- action_rng;
      idxs.(s) <- idx;
      steps_acc.(s) <- [];
      returns.(s) <- 0.0;
      active.(s) <- true
    end
  in
  for s = 0 to nslots - 1 do
    start s
  done;
  while Array.exists (fun b -> b) active do
    let live =
      Array.of_list
        (List.filter (fun s -> active.(s)) (List.init nslots (fun s -> s)))
    in
    let stepped =
      step_slab
        ~envs:(Array.map (fun s -> envs.(s)) live)
        ~rngs:(Array.map (fun s -> rngs.(s)) live)
        ~obs:(Array.map (fun s -> obs.(s)) live)
    in
    Array.iteri
      (fun k (result, transition) ->
        let s = live.(k) in
        steps_acc.(s) <- transition :: steps_acc.(s);
        returns.(s) <- returns.(s) +. result.Env.reward;
        obs.(s) <- result.Env.obs;
        if result.Env.terminal then begin
          let env = envs.(s) in
          out.(idxs.(s) - lo) <-
            Some
              {
                ep_steps = Array.of_list (List.rev steps_acc.(s));
                ep_return = returns.(s);
                (* Bumps the explored counter and consumes a jitter
                   draw, both part of the episode's accounting. *)
                ep_speedup = Env.current_speedup env;
                ep_env = env;
              };
          active.(s) <- false;
          start s
        end)
      stepped
  done;
  Array.map Option.get out

(* Split [wave] episodes starting at [lo] into one contiguous chunk per
   worker (first chunks get the remainder), dropping empty chunks. *)
let chunk_ranges ~lo ~wave ~jobs =
  let base = wave / jobs and extra = wave mod jobs in
  let rec go w start acc =
    if w >= jobs then List.rev acc
    else
      let len = base + if w < extra then 1 else 0 in
      if len = 0 then List.rev acc
      else go (w + 1) (start + len) ((start, start + len) :: acc)
  in
  go 0 lo []

(* Generic collection/update loop shared by the hierarchical and flat
   trainers. [step_slab] advances a slab of concurrent episodes by one
   action each (batched policy forward); everything else — waves,
   in-order consumption, accounting merge, checkpointing — is policy
   agnostic. *)
let run_loop ?callback ?(resume = false) config env ~params ~optimizer ~ops
    ~step_slab ~update =
  if config.jobs < 1 then invalid_arg "Trainer: jobs must be >= 1";
  if config.inference_batch < 1 then
    invalid_arg "Trainer: inference_batch must be >= 1";
  let rng = Util.Rng.derive config.seed ~stream:update_stream in
  let stats_acc = ref [] in
  let best = ref 0.0 in
  let start_iteration = ref 0 in
  let episodes = ref 0 in
  (if resume then
     match config.checkpoint_path with
     | None ->
         invalid_arg "Trainer: resume requested without a checkpoint_path"
     | Some path when not (Checkpoint.exists ~path) ->
         (* Nothing saved yet: start from scratch (first run of a job
            that is always launched with --resume). *)
         ()
     | Some path -> (
         match Checkpoint.restore ~path ~params ~optimizer with
         | Error e -> invalid_arg ("Trainer: cannot resume: " ^ e)
         | Ok meta ->
             start_iteration := meta.Checkpoint.iteration;
             episodes := meta.Checkpoint.episodes;
             best := meta.Checkpoint.best_speedup;
             Util.Rng.set_state rng meta.Checkpoint.rng_state;
             Env.restore_accounting env
               ~measurement_seconds:meta.Checkpoint.measurement_seconds
               meta.Checkpoint.counters;
             let ev = Env.evaluator env in
             Evaluator.set_noise_state ev meta.Checkpoint.noise_state;
             (match (meta.Checkpoint.fault_state, Evaluator.faults ev) with
             | Some st, Some f -> Faults.restore f st
             | _ -> ())));
  let pool =
    if config.jobs > 1 then Some (Util.Domain_pool.create ~size:(config.jobs - 1))
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Util.Domain_pool.shutdown pool)
    (fun () ->
      (* Episode-length estimate for wave sizing. Only efficiency rides
         on it (a bad estimate means more speculative episodes), never
         correctness: consumption order fixes the trajectory. *)
      let consumed_eps = ref 0 in
      let consumed_steps = ref 0 in
      let collect (lo, hi) =
        play_chunk ~env_proto:env ~seed:config.seed ~ops
          ~slab:config.inference_batch ~step_slab ~lo ~hi
      in
      let play_wave ~lo ~wave =
        let chunks = chunk_ranges ~lo ~wave ~jobs:config.jobs in
        match (pool, chunks) with
        | _, [] -> []
        | None, chunks -> List.map collect chunks
        | Some pool, first :: rest ->
            (* Queue the other chunks, then work the first one on the
               main domain so [jobs] cores stay busy with [jobs - 1]
               pool workers. *)
            let promises =
              List.map
                (fun range ->
                  Util.Domain_pool.submit pool (fun () -> collect range))
                rest
            in
            collect first :: List.map Util.Domain_pool.await promises
      in
      for iteration = !start_iteration + 1 to config.iterations do
        let transitions = ref [] in
        let returns = ref [] in
        let speedups = ref [] in
        let n_steps = ref 0 in
        let queue = Queue.create () in
        let next_index = ref !episodes in
        while !n_steps < config.ppo.Ppo.batch_size do
          if Queue.is_empty queue then begin
            let remaining = config.ppo.Ppo.batch_size - !n_steps in
            let est =
              if !consumed_eps = 0 then 2.0
              else float_of_int !consumed_steps /. float_of_int !consumed_eps
            in
            let wave =
              max 1
                (min
                   (config.jobs * config.inference_batch)
                   (int_of_float (Float.ceil (float_of_int remaining /. est))))
            in
            List.iter
              (Array.iter (fun ep -> Queue.push ep queue))
              (play_wave ~lo:!next_index ~wave);
            next_index := !next_index + wave
          end;
          (* Consume strictly in episode-index order; episodes left in
             the queue when the batch fills are discarded unmerged and
             their indices re-collected next iteration (with the
             updated policy) — identical for every [jobs]. *)
          let ep = Queue.pop queue in
          transitions := ep.ep_steps :: !transitions;
          returns := ep.ep_return :: !returns;
          speedups := Float.max 1e-9 ep.ep_speedup :: !speedups;
          n_steps := !n_steps + Array.length ep.ep_steps;
          Env.absorb env ep.ep_env;
          incr episodes;
          incr consumed_eps;
          consumed_steps := !consumed_steps + Array.length ep.ep_steps
        done;
        let batch = Array.concat (List.rev !transitions) in
        let ppo_stats = update batch ~rng in
        let mean_final_speedup = Util.Stats.geomean !speedups in
        best := Float.max !best (List.fold_left Float.max 0.0 !speedups);
        let counters = Evaluator.counters (Env.evaluator env) in
        let st =
          {
            iteration;
            mean_episode_return = Util.Stats.mean !returns;
            mean_final_speedup;
            best_speedup = !best;
            ppo_stats;
            measurement_seconds = Env.measurement_seconds env;
            schedules_explored = counters.Evaluator.explored;
            degraded_measurements = counters.Evaluator.degraded;
            episodes = !episodes;
          }
        in
        (match config.checkpoint_path with
        | Some path
          when config.checkpoint_every > 0
               && (iteration mod config.checkpoint_every = 0
                  || iteration = config.iterations) ->
            Checkpoint.save ~path
              (checkpoint_meta env rng ~iteration ~episodes:!episodes
                 ~best:!best)
              ~params ~optimizer
        | _ -> ());
        (match callback with Some f -> f st | None -> ());
        stats_acc := st :: !stats_acc
      done;
      List.rev !stats_acc)

let train ?callback ?resume config env policy ~ops =
  if Array.length ops = 0 then invalid_arg "Trainer.train: no training ops";
  let params = Policy.params policy in
  let optimizer = Optim.adam ~lr:config.ppo.Ppo.learning_rate params in
  let ppo_policy = Policy.ppo_policy policy in
  let step_slab ~envs ~rngs ~obs =
    let masks = Array.map Env.masks envs in
    let acts = Policy.act_batch rngs policy ~obs ~masks in
    Array.init (Array.length envs) (fun i ->
        let action, log_prob, value = acts.(i) in
        let result = Env.step_hierarchical envs.(i) action in
        ( result,
          {
            Ppo.sample =
              { Policy.s_obs = obs.(i); s_action = action; s_masks = masks.(i) };
            reward = result.Env.reward;
            value;
            log_prob;
            terminal = result.Env.terminal;
          } ))
  in
  let update batch ~rng = Ppo.update config.ppo ppo_policy optimizer batch ~rng in
  run_loop ?callback ?resume config env ~params ~optimizer ~ops ~step_slab
    ~update

let train_flat ?callback ?resume config env policy ~ops =
  if Array.length ops = 0 then invalid_arg "Trainer.train_flat: no training ops";
  let params = Flat_policy.params policy in
  let optimizer = Optim.adam ~lr:config.ppo.Ppo.learning_rate params in
  let ppo_policy = Flat_policy.ppo_policy policy in
  let menu = Flat_policy.menu policy in
  let step_slab ~envs ~rngs ~obs =
    let cfg = Env.config envs.(0) in
    let masks =
      Array.map (fun e -> Action_space.simple_mask cfg (Env.state e) menu) envs
    in
    let acts = Flat_policy.act_batch rngs policy ~obs ~masks in
    Array.init (Array.length envs) (fun i ->
        let choice, log_prob, value = acts.(i) in
        let env = envs.(i) in
        let ctx = Action_space.legality_of cfg (Env.state env) in
        let tr =
          Action_space.legalize ?ctx (Env.state env)
            menu.(choice).Action_space.transformation
        in
        let result = Env.step env tr in
        ( result,
          {
            Ppo.sample =
              { Flat_policy.f_obs = obs.(i); f_choice = choice; f_mask = masks.(i) };
            reward = result.Env.reward;
            value;
            log_prob;
            terminal = result.Env.terminal;
          } ))
  in
  let update batch ~rng = Ppo.update config.ppo ppo_policy optimizer batch ~rng in
  run_loop ?callback ?resume config env ~params ~optimizer ~ops ~step_slab
    ~update

let greedy_rollout env policy op =
  let obs = ref (Env.reset env op) in
  let continue = ref true in
  while !continue do
    let masks = Env.masks env in
    let action = Policy.act_greedy policy ~obs:!obs ~masks in
    let result = Env.step_hierarchical env action in
    obs := result.Env.obs;
    if result.Env.terminal then continue := false
  done;
  (Env.schedule env, Env.current_speedup env)

(* Inference-time stochastic search. Trials are independent episodes,
   so they parallelize exactly like training episodes: per-trial
   streams split off the caller's rng up front, contiguous trial ranges
   per worker, results reduced in trial order — the winning schedule is
   the same for every [jobs]. *)
let sampled_best ?(temperature = 1.5) ?(jobs = 1) rng env policy op ~trials =
  if jobs < 1 then invalid_arg "Trainer.sampled_best: jobs must be >= 1";
  let masters = Array.init trials (fun _ -> Util.Rng.state (Util.Rng.split rng)) in
  let run_range (lo, hi) =
    Array.init (hi - lo) (fun k ->
        let master = Util.Rng.of_state masters.(lo + k) in
        let action_rng = Util.Rng.split master in
        let noise_state = Util.Rng.state (Util.Rng.split master) in
        let fault_state = Util.Rng.state (Util.Rng.split master) in
        let fork = episode_env env ~noise_state ~fault_state in
        let obs = ref (Env.reset fork op) in
        let continue = ref true in
        while !continue do
          let masks = Env.masks fork in
          let action, _, _ =
            Policy.act ~temperature action_rng policy ~obs:!obs ~masks
          in
          let result = Env.step_hierarchical fork action in
          obs := result.Env.obs;
          if result.Env.terminal then continue := false
        done;
        let speedup = Env.current_speedup fork in
        (Env.schedule fork, speedup, fork))
  in
  let chunks = chunk_ranges ~lo:0 ~wave:trials ~jobs in
  let results =
    match chunks with
    | [] -> []
    | [ range ] -> [ run_range range ]
    | first :: rest when jobs > 1 ->
        let pool = Util.Domain_pool.create ~size:(jobs - 1) in
        Fun.protect
          ~finally:(fun () -> Util.Domain_pool.shutdown pool)
          (fun () ->
            let promises =
              List.map
                (fun range ->
                  Util.Domain_pool.submit pool (fun () -> run_range range))
                rest
            in
            run_range first :: List.map Util.Domain_pool.await promises)
    | chunks -> List.map run_range chunks
  in
  let best_sched = ref [] in
  let best_speedup = ref 0.0 in
  List.iter
    (Array.iter
       (fun (sched, sp, fork) ->
         (* Merge each trial's accounting in trial order, mirroring the
            training loop's consume step. *)
         Env.absorb env fork;
         if sp > !best_speedup then begin
           best_speedup := sp;
           best_sched := sched
         end))
    results;
  (!best_sched, !best_speedup)
