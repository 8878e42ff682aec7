type config = {
  env_cfg : Env_config.t;
  hidden : int;
  checkpoint : string option;
  cache_capacity : int;
  measure_delay_s : float;
  jobs : int;
}

let default_config =
  {
    env_cfg = Env_config.default;
    hidden = 64;
    checkpoint = None;
    cache_capacity = 4096;
    measure_delay_s = 0.0;
    jobs = 1;
  }

type outcome = { schedule : string; speedup : float }

type t = {
  cfg : config;
  policy : Policy.t;
  base_env : Env.t;
  cache : (string, outcome) Util.Sharded_cache.t;
  digest : string;
  (* [Some] iff [cfg.jobs > 1]: the rollout pool the batched greedy
     decode chunks over. FIFO (not stealing): chunks are equal-sized
     slices of one batch. Shared by every server worker that calls
     [solve_batch] — the pool is multi-producer safe. *)
  pool : Util.Domain_pool.t option;
}

(* The digest is over the canonical serialized weights, not the
   checkpoint file: a random-init policy gets a digest too, and two
   checkpoints with identical weights share one. *)
let digest_params params =
  let path = Filename.temp_file "mrs_policy" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Serialize.save_params path params;
      Digest.to_hex (Digest.file path))

let create cfg =
  if cfg.jobs < 1 then
    Error (Printf.sprintf "jobs must be >= 1 (got %d)" cfg.jobs)
  else
  match Env_config.validate cfg.env_cfg with
  | Error e -> Error ("bad env config: " ^ e)
  | Ok () -> (
      let policy =
        Policy.create ~hidden:cfg.hidden (Util.Rng.create 0x51) cfg.env_cfg
      in
      let load_result =
        match cfg.checkpoint with
        | None -> Ok ()
        | Some path -> Policy.load policy path
      in
      match load_result with
      | Error e -> Error ("checkpoint load failed: " ^ e)
      | Ok () ->
          let evaluator =
            Evaluator.create ~machine:cfg.env_cfg.Env_config.machine
              ~measure_delay_s:cfg.measure_delay_s ()
          in
          let base_env = Env.create ~evaluator cfg.env_cfg in
          let cache =
            Util.Sharded_cache.create ~capacity:cfg.cache_capacity ()
          in
          let digest = digest_params (Policy.params policy) in
          let pool =
            if cfg.jobs > 1 then
              Some (Util.Domain_pool.create ~size:cfg.jobs)
            else None
          in
          Ok { cfg; policy; base_env; cache; digest; pool })

let shutdown t =
  match t.pool with None -> () | Some p -> Util.Domain_pool.shutdown p

let policy_digest t = t.digest

let check_bounds (cfg : Env_config.t) (op : Linalg.t) =
  let n = Array.length op.Linalg.domain in
  let l = Array.length op.Linalg.inputs in
  let rank_bad =
    Array.exists
      (fun (o : Linalg.operand) -> Array.length o.Linalg.shape > cfg.d_max)
      op.Linalg.inputs
    || Array.length op.Linalg.output.Linalg.shape > cfg.d_max
  in
  if n = 0 || n > cfg.n_max then
    Error
      (Printf.sprintf "op has %d loops; this server handles 1..%d" n cfg.n_max)
  else if l > cfg.l_max then
    Error
      (Printf.sprintf "op has %d inputs; this server handles at most %d" l
         cfg.l_max)
  else if rank_bad then
    Error
      (Printf.sprintf "an operand exceeds the server's max rank %d" cfg.d_max)
  else Ok ()

let resolve_target t (target : Protocol.target) =
  let op_result =
    match target with
    | Protocol.Spec s -> (
        match Op_spec.parse s with
        | Ok op -> Ok op
        | Error e -> Error (Protocol.Parse_error, "bad op spec: " ^ e))
    | Protocol.Ir s -> (
        match Ir_parser.parse_result s with
        | Error e -> Error (Protocol.Parse_error, "bad IR: " ^ e)
        | Ok nest -> (
            match Lower.raise_nest nest with
            | Ok op -> Ok op
            | Error e ->
                Error (Protocol.Unsupported, "nest cannot be raised: " ^ e)))
  in
  match op_result with
  | Error _ as e -> e
  | Ok op -> (
      match check_bounds (Env.config t.base_env) op with
      | Ok () -> Ok op
      | Error e -> Error (Protocol.Unsupported, e))

(* Structural digest of the canonical lowered nest — O(nest) with no
   intermediate pretty-printed string (the previous scheme printed the
   whole nest and MD5-ed the text). Nest names are excluded from the
   digest, so e.g. a spec-built op and the same op raised from IR under
   another name share a result-cache entry; everything semantic
   (buffers, subscripts, bodies, shapes) is hashed, so same-named ops
   with different shapes never collide. *)
let nest_digest op = Loop_nest.digest (Lower.to_loop_nest op)

let cache_key _t op = nest_digest op

(* One lockstep batched rollout: every active episode contributes a row
   to a single greedy forward pass per step. act_greedy_batch is
   row-independent, so this computes exactly what per-op greedy_rollout
   calls would — just with the inference amortized. *)
let rollout_batch t (ops : Linalg.t array) :
    (outcome, Protocol.error_code * string) result array =
  let n = Array.length ops in
  let envs = Array.map (fun _ -> Env.fork t.base_env) ops in
  let results = Array.make n (Error (Protocol.Env_failure, "not computed")) in
  let obs = Array.make n [||] in
  let active = Array.make n false in
  Array.iteri
    (fun i op ->
      try
        obs.(i) <- Env.reset envs.(i) op;
        active.(i) <- true
      with e ->
        results.(i) <-
          Error (Protocol.Env_failure, "reset failed: " ^ Printexc.to_string e))
    ops;
  let any_active () = Array.exists Fun.id active in
  while any_active () do
    let idxs =
      Array.of_list
        (List.filter (fun i -> active.(i)) (List.init n Fun.id))
    in
    let batch_obs = Array.map (fun i -> obs.(i)) idxs in
    let batch_masks = Array.map (fun i -> Env.masks envs.(i)) idxs in
    let actions =
      Policy.act_greedy_batch t.policy ~obs:batch_obs ~masks:batch_masks
    in
    Array.iteri
      (fun k i ->
        try
          let r = Env.step_hierarchical envs.(i) actions.(k) in
          obs.(i) <- r.Env.obs;
          if r.Env.terminal then begin
            active.(i) <- false;
            results.(i) <-
              Ok
                {
                  schedule = Schedule.to_string (Env.schedule envs.(i));
                  speedup = Env.current_speedup envs.(i);
                }
          end
        with e ->
          active.(i) <- false;
          results.(i) <-
            Error
              (Protocol.Env_failure, "step failed: " ^ Printexc.to_string e))
      idxs
  done;
  results

(* Chunked parallel decode: slice the batch into [jobs] contiguous
   chunks and run each as its own lockstep rollout on the pool. Every
   row of [rollout_batch] is independent (greedy decode, per-row forked
   env), so the concatenated chunk results are exactly what one big
   lockstep batch computes — splitting changes only which rows share a
   forward pass, never any row's answer. *)
let rollout_chunked t (ops : Linalg.t array) =
  match t.pool with
  | None -> rollout_batch t ops
  | Some pool ->
      let n = Array.length ops in
      let jobs = Util.Domain_pool.size pool in
      let chunk = (n + jobs - 1) / jobs in
      if n = 0 then [||]
      else if n <= 1 || jobs <= 1 then rollout_batch t ops
      else begin
        let slices = ref [] in
        let start = ref 0 in
        while !start < n do
          let len = min chunk (n - !start) in
          slices := (!start, len) :: !slices;
          start := !start + len
        done;
        let parts =
          Util.Domain_pool.map_array pool
            (fun (start, len) -> rollout_batch t (Array.sub ops start len))
            (Array.of_list (List.rev !slices))
        in
        Array.concat (Array.to_list parts)
      end

let solve_batch t ops =
  let n = Array.length ops in
  let keys = Array.map (cache_key t) ops in
  let results = Array.make n (Error (Protocol.Env_failure, "not computed")) in
  let miss_idx = ref [] in
  for i = n - 1 downto 0 do
    match Util.Sharded_cache.find_opt t.cache keys.(i) with
    | Some outcome -> results.(i) <- Ok outcome
    | None -> miss_idx := i :: !miss_idx
  done;
  (* Requests for the same op inside one batch roll out once. *)
  let seen = Hashtbl.create 8 in
  let unique =
    List.filter
      (fun i ->
        if Hashtbl.mem seen keys.(i) then false
        else begin
          Hashtbl.replace seen keys.(i) i;
          true
        end)
      !miss_idx
  in
  if unique <> [] then begin
    let unique = Array.of_list unique in
    let computed = rollout_chunked t (Array.map (fun i -> ops.(i)) unique) in
    Array.iteri
      (fun k i ->
        (match computed.(k) with
        | Ok outcome -> Util.Sharded_cache.add t.cache keys.(i) outcome
        | Error _ -> ());
        results.(i) <- computed.(k))
      unique;
    List.iter
      (fun i ->
        match results.(i) with
        | Ok _ -> ()
        | Error _ ->
            let owner = Hashtbl.find seen keys.(i) in
            if owner <> i then results.(i) <- results.(owner))
      !miss_idx
  end;
  results

let cache_stats t = Util.Sharded_cache.stats t.cache

let cache_hits t = (cache_stats t).Util.Sharded_cache.hits

let cache_misses t = (cache_stats t).Util.Sharded_cache.misses

let evaluator_cache_stats t = Evaluator.cache_stats (Env.evaluator t.base_env)
