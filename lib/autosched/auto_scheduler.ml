type config = {
  tile_sizes : int list;
  min_tiled_loops : int;
  par_loops_considered : int;
  include_interchange : bool;
  include_im2col : bool;
  max_schedules : int;
}

let default_config =
  {
    tile_sizes = [];
    (* empty = derive from divisors, capped at 64 (paper §5.1.4) *)
    min_tiled_loops = 2;
    par_loops_considered = 3;
    include_interchange = true;
    include_im2col = true;
    max_schedules = 3000;
  }

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;
  trace : (int * float) array;
}

let max_tile_size = 64
let max_options_per_loop = 4

(* Candidate tile sizes for one loop: the largest few divisors <= 64
   (or the configured list), always alongside 0 = untiled. *)
let loop_options config trip =
  let pool =
    match config.tile_sizes with
    | [] -> List.filter (fun d -> d <= max_tile_size && d > 1) (Loop_transforms.divisors trip)
    | sizes -> List.filter (fun s -> s > 1 && s <= trip && trip mod s = 0) sizes
  in
  let sorted = List.sort (fun a b -> compare b a) pool in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  0 :: take max_options_per_loop sorted

let count_nonzero l = List.length (List.filter (fun s -> s > 0) l)

let count_nonzero_array a =
  Array.fold_left (fun acc s -> if s > 0 then acc + 1 else acc) 0 a

let rec product (options : int list list) : int list Seq.t =
  match options with
  | [] -> Seq.return []
  | opts :: rest ->
      Seq.concat_map
        (fun choice -> Seq.map (fun tail -> choice :: tail) (product rest))
        (List.to_seq opts)

(* One schedule from (par combo option, tile combo, swap option). *)
let assemble ~prefix ~par_opt ~tile_combo ~swap_opt =
  (match par_opt with
  | Some sizes when count_nonzero_array sizes > 0 ->
      [ Schedule.Parallelize sizes ]
  | Some _ | None -> [])
  @ (if count_nonzero_array tile_combo > 0 then
       [ Schedule.Tile tile_combo ]
     else [])
  @ (match swap_opt with Some i -> [ Schedule.Swap i ] | None -> [])
  @ [ Schedule.Vectorize ]
  |> fun steps -> prefix @ steps

type domain_space = {
  prefix : Schedule.t;
  trips : int array;
  par_slots : (int * int list) list;  (* (loop index, size options incl 0) *)
  swap_opts : int option list;
}

let make_space config ~prefix ~trips ~iter_kinds =
  let n = Array.length trips in
  let par_slots =
    let eligible = ref [] in
    let taken = ref 0 in
    Array.iteri
      (fun l trip ->
        if
          !taken < config.par_loops_considered
          && trip > 1
          && l < Array.length iter_kinds
          && iter_kinds.(l) = Linalg.Parallel_iter
        then begin
          let opts = loop_options config trip in
          if List.length opts > 1 then begin
            eligible := (l, opts) :: !eligible;
            incr taken
          end
        end)
      trips;
    List.rev !eligible
  in
  let swap_opts =
    if config.include_interchange && n >= 2 then
      None :: List.init (n - 1) (fun i -> Some i)
    else [ None ]
  in
  { prefix; trips; par_slots; swap_opts }

(* The par-combo stream of a space: None (no Parallelize step) first,
   then every nonzero combination of the parallel slots, head slot
   varying slowest — shared by the exhaustive stream, the sequential
   DFS and the frontier decomposition so all enumerate in the same
   order. *)
let par_combos (space : domain_space) : int array option Seq.t =
  let n = Array.length space.trips in
  Seq.cons None
    (Seq.filter_map
       (fun combo ->
         if count_nonzero combo = 0 then None
         else begin
           let sizes = Array.make n 0 in
           List.iter2
             (fun (l, _) size -> sizes.(l) <- size)
             space.par_slots combo;
           Some (Some sizes)
         end)
       (product (List.map snd space.par_slots)))

(* Trip counts the tile step sees under a parallel combo: a loop tiled
   for parallelism keeps [size] iterations in its point loop. *)
let effective_trips (space : domain_space) = function
  | None -> space.trips
  | Some sizes ->
      Array.mapi (fun l s -> if s > 0 then s else space.trips.(l)) sizes

let par_count = function
  | None -> 0
  | Some sizes -> count_nonzero_array sizes

(* Exhaustive stream over one domain space. *)
let space_candidates config (space : domain_space) : Schedule.t Seq.t =
  Seq.concat_map
    (fun par_opt ->
      let par_count = par_count par_opt in
      let tile_opts =
        Array.to_list
          (Array.map (loop_options config) (effective_trips space par_opt))
      in
      Seq.concat_map
        (fun tile_combo ->
          if par_count + count_nonzero tile_combo < config.min_tiled_loops then
            Seq.empty
          else
            Seq.map
              (fun swap_opt ->
                assemble ~prefix:space.prefix ~par_opt
                  ~tile_combo:(Array.of_list tile_combo) ~swap_opt)
              (List.to_seq space.swap_opts))
        (product tile_opts))
    (par_combos space)

(* [loop_options] enumerates, filters and sorts divisors — far too
   expensive to redo per sampling attempt per loop (the sampling loops
   below draw tens of thousands of candidates, and trip counts repeat
   constantly). One memo table per search invocation; [config] is fixed
   for the table's lifetime, so the key is just the trip count. *)
let loop_options_memo config =
  let tbl = Hashtbl.create 32 in
  fun trip ->
    match Hashtbl.find_opt tbl trip with
    | Some opts -> opts
    | None ->
        let opts = loop_options config trip in
        Hashtbl.add tbl trip opts;
        opts

(* One sampled point of a domain space: the decisions [assemble] turns
   into a schedule. *)
type draw = {
  d_space : domain_space;
  d_par : int array option;  (* None, or a combo with a nonzero size *)
  d_tile : int array;
  d_swap : int option;
}

let schedule_of_draw d =
  assemble ~prefix:d.d_space.prefix ~par_opt:d.d_par ~tile_combo:d.d_tile
    ~swap_opt:d.d_swap

(* Seeded random draw from one domain space. [opts] is the (memoized)
   tile-size option list per trip count. *)
let random_draw rng config ~opts (space : domain_space) =
  let n = Array.length space.trips in
  let par_opt =
    if space.par_slots <> [] && Util.Rng.bool rng then begin
      let sizes = Array.make n 0 in
      List.iter
        (fun (l, opts) -> sizes.(l) <- Util.Rng.choice_list rng opts)
        space.par_slots;
      if Array.exists (fun s -> s > 0) sizes then Some sizes else None
    end
    else None
  in
  let tile_combo =
    Array.map
      (fun trip -> Util.Rng.choice_list rng (opts trip))
      (effective_trips space par_opt)
  in
  if par_count par_opt + count_nonzero_array tile_combo
     < config.min_tiled_loops
  then None
  else
    Some
      {
        d_space = space;
        d_par = par_opt;
        d_tile = tile_combo;
        d_swap = Util.Rng.choice_list rng space.swap_opts;
      }

let spaces config (op : Linalg.t) =
  let plain =
    make_space config ~prefix:[] ~trips:(Linalg.loop_bounds op)
      ~iter_kinds:op.Linalg.iter_kinds
  in
  if config.include_im2col && Linalg.is_conv op then
    match Im2col.rewrite op with
    | Ok (gemm, _) ->
        [ plain;
          make_space config ~prefix:[ Schedule.Im2col ]
            ~trips:(Linalg.loop_bounds gemm)
            ~iter_kinds:gemm.Linalg.iter_kinds ]
    | Error _ -> [ plain ]
  else [ plain ]

let space_size config (space : domain_space) =
  let opt_count trip = List.length (loop_options config trip) in
  let par =
    List.fold_left (fun acc (_, opts) -> acc * List.length opts) 1 space.par_slots
  in
  let tiles = Array.fold_left (fun acc trip -> acc * opt_count trip) 1 space.trips in
  (* Upper bound: ignores the min-tiled filter. *)
  par * tiles * List.length space.swap_opts

let candidates config (op : Linalg.t) : Schedule.t Seq.t =
  Seq.cons
    [ Schedule.Vectorize ]
    (Seq.concat_map (space_candidates config) (List.to_seq (spaces config op)))

(* The size estimate the search dispatches on (full enumeration vs
   budgeted sampling): an upper bound on |candidates|, since the
   per-space product ignores the min-tiled filter. *)
let space_total config op =
  1 + List.fold_left (fun acc s -> acc + space_size config s) 0 (spaces config op)

(* Seeded from the full op digest (name, dims, iter kinds), not just
   op_name: two same-named ops with different shapes must not share a
   sampling stream — their spaces differ, and a shared stream made the
   "without replacement" budget behave differently per shape for no
   reason. Pinned by a determinism test. *)
let sampling_seed (op : Linalg.t) = Hashtbl.hash (Linalg.digest op)

(* The budgeted sampling stream every sampled path draws from: seeded
   draws over the spaces [sps] of [op], without replacement. [next ()]
   returns the next unseen draw with its schedule, or None once
   [max_schedules * 20] attempts are spent. [seen] is the caller's dedup
   table; its keys are structural schedules — generic hashing beats
   building a string per attempt, and bucket collisions fall back to
   full structural equality, so dedup stays exact. *)
let sampler config op sps ~seen =
  let rng = Util.Rng.create (sampling_seed op) in
  let opts = loop_options_memo config in
  let attempts = ref 0 in
  let max_attempts = config.max_schedules * 20 in
  let rec next () =
    if !attempts >= max_attempts then None
    else begin
      incr attempts;
      let space = Util.Rng.choice_list rng sps in
      match random_draw rng config ~opts space with
      | None -> next ()
      | Some d ->
          let sched = schedule_of_draw d in
          if Hashtbl.mem seen sched then next ()
          else begin
            Hashtbl.add seen sched ();
            Some (d, sched)
          end
    end
  in
  next

let apply_opt state tr = Result.to_option (Sched_state.apply state tr)

(* Prefix states shared by the candidates of one search, per space: the
   root with the space prefix applied and, filled on demand, the state
   after (prefix; Parallelize sizes) per parallel combo. A sampled
   candidate then applies only its own Tile, Swap and Vectorize instead
   of replaying [Sched_state.apply_all] from [init] — which re-lowers
   the op, re-runs im2col and re-tiles for parallelism every time. None
   marks a prefix that fails to apply, failing every candidate that
   extends it, exactly as [apply_all] would. *)
type space_states = {
  prefixed : Sched_state.t option;
  after_par : (int array, Sched_state.t option) Hashtbl.t;
}

let apply_prefix root (space : domain_space) =
  List.fold_left
    (fun acc tr -> Option.bind acc (fun s -> apply_opt s tr))
    (Some root) space.prefix

let prefix_memo root sps =
  List.map
    (fun space ->
      let prefixed = apply_prefix root space in
      (space, { prefixed; after_par = Hashtbl.create 64 }))
    sps

(* The state after a draw's (prefix; parallelize) steps. *)
let draw_prefix memo d =
  let ss = List.assq d.d_space memo in
  match (ss.prefixed, d.d_par) with
  | None, _ -> None
  | Some pre, None -> Some pre
  | Some pre, Some sizes -> (
      match Hashtbl.find_opt ss.after_par sizes with
      | Some s -> s
      | None ->
          let s = apply_opt pre (Schedule.Parallelize sizes) in
          Hashtbl.add ss.after_par sizes s;
          s)

(* The rest of a draw from its prefix state: the terminal state
   [Sched_state.apply_all] reaches on [schedule_of_draw d], or None
   where it fails. Pure, so any domain may run it. *)
let finish_draw d after_par =
  let ( let* ) = Option.bind in
  let* after_tile =
    if count_nonzero_array d.d_tile > 0 then
      apply_opt after_par (Schedule.Tile d.d_tile)
    else Some after_par
  in
  let* swapped =
    match d.d_swap with
    | None -> Some after_tile
    | Some i -> apply_opt after_tile (Schedule.Swap i)
  in
  apply_opt swapped Schedule.Vectorize

(* A frontier subtask: one independent subtrie of the (prefix;
   parallelize; tile; swap; vectorize) decision trie — a space with its
   prefix already applied, one parallel combo, and the tile choices of
   the leading [frontier_depth] loops pinned. Subtasks share no mutable
   state, so they evaluate on any domain; enumerating them in order and
   concatenating their leaf streams reproduces the sequential DFS
   leaf-for-leaf. *)
type subtask = {
  st_space : domain_space;
  st_pre : Sched_state.t;  (* root with the space prefix applied *)
  st_par : int array option;
  st_par_count : int;
  st_tile_prefix : int list;  (* pinned tile choices of the leading loops *)
  st_rest_opts : int list list;  (* remaining loops' tile options *)
}

let rec split_at k l =
  if k = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let h, t = split_at (k - 1) rest in
        (x :: h, t)

(* Enumerate the frontier: (space, par combo, leading tile choices) in
   exact sequential DFS order. [product] varies its head slowest, so
   splitting the tile product at [frontier_depth] and enumerating
   (head combo) x (rest combo) preserves the global candidate order.
   Returns the root state alongside (the trivial [Vectorize] candidate
   is the driver's, not a subtask). *)
let subtasks ?(frontier_depth = 0) config op =
  let root = Sched_state.init op in
  let tasks = ref [] in
  List.iter
    (fun space ->
      match apply_prefix root space with
      | None -> ()
      | Some pre ->
          Seq.iter
            (fun par_opt ->
              let tile_opts =
                Array.to_list
                  (Array.map (loop_options config)
                     (effective_trips space par_opt))
              in
              let head_opts, rest_opts = split_at frontier_depth tile_opts in
              Seq.iter
                (fun tile_prefix ->
                  tasks :=
                    {
                      st_space = space;
                      st_pre = pre;
                      st_par = par_opt;
                      st_par_count = par_count par_opt;
                      st_tile_prefix = tile_prefix;
                      st_rest_opts = rest_opts;
                    }
                    :: !tasks)
                (product head_opts))
            (par_combos space))
    (spaces config op);
  (root, List.rev !tasks)

(* One subtask's leaves, in sequential DFS order: apply Parallelize once
   for the whole subtrie, then enumerate the unpinned tile options, the
   swaps and the final vectorize. A transformation that fails prunes its
   subtree — exactly the candidates the naive loop would have skipped. *)
let run_subtask config (st : subtask) ~eval =
  let after_par =
    match st.st_par with
    | Some sizes when st.st_par_count > 0 -> (
        match Sched_state.apply st.st_pre (Schedule.Parallelize sizes) with
        | Ok s -> Some s
        | Error _ -> None)
    | Some _ | None -> Some st.st_pre
  in
  match after_par with
  | None -> ()
  | Some after_par ->
      Seq.iter
        (fun rest_combo ->
          let tile_combo = st.st_tile_prefix @ rest_combo in
          if st.st_par_count + count_nonzero tile_combo < config.min_tiled_loops
          then ()
          else begin
            let tile_arr = Array.of_list tile_combo in
            let after_tile =
              if count_nonzero tile_combo > 0 then
                match Sched_state.apply after_par (Schedule.Tile tile_arr) with
                | Ok s -> Some s
                | Error _ -> None
              else Some after_par
            in
            match after_tile with
            | None -> ()
            | Some after_tile ->
                List.iter
                  (fun swap_opt ->
                    let after_swap =
                      match swap_opt with
                      | None -> Some after_tile
                      | Some i -> (
                          match
                            Sched_state.apply after_tile (Schedule.Swap i)
                          with
                          | Ok s -> Some s
                          | Error _ -> None)
                    in
                    match after_swap with
                    | None -> ()
                    | Some swapped -> (
                        match Sched_state.apply swapped Schedule.Vectorize with
                        | Error _ -> ()
                        | Ok final ->
                            eval
                              (assemble ~prefix:st.st_space.prefix
                                 ~par_opt:st.st_par ~tile_combo:tile_arr
                                 ~swap_opt)
                              final))
                  st.st_space.swap_opts
          end)
        (product st.st_rest_opts)

(* Prefix-sharing enumeration of the exhaustive candidate stream: a DFS
   over the (prefix; parallelize; tile; swap; vectorize) decision trie
   that applies each transformation once per distinct trie node instead
   of replaying the whole schedule per leaf ([Sched_state.apply_all],
   which re-applies the shared prefix for every candidate containing
   it). [eval] receives the exact schedule [candidates] would have
   produced together with its fully applied terminal state.

   Bit-identity with mapping [apply_all] over [candidates] (the
   differential property tests assert it): leaves are visited in the
   same order; applying the same transformations in the same order from
   [init] yields the same states ([apply] is deterministic, and
   [apply_all] is its fold); and a transformation that fails at depth k
   fails identically inside every naive candidate sharing that prefix,
   so pruning the subtree skips exactly the candidates the naive loop
   would have skipped — explored counts, traces and the evaluator's
   jitter stream line up.

   Implemented as the concatenation of the frontier subtasks at depth 0
   (one subtask per (space, par combo)), which is the same trie walked
   in the same order — the parallel search reuses the identical pieces
   with a deeper frontier. *)
let iter_candidates_shared config op
    ~(eval : Schedule.t -> Sched_state.t -> unit) =
  let root, tasks = subtasks config op in
  (match Sched_state.apply root Schedule.Vectorize with
  | Ok final -> eval [ Schedule.Vectorize ] final
  | Error _ -> ());
  List.iter (fun st -> run_subtask config st ~eval) tasks

(* The shared skeleton of [search] and [search_naive]: bookkeeping, the
   exhaustive branch and the budgeted sampling fallback. [naive] replays
   every candidate with [Sched_state.apply_all] — the differential
   oracle; otherwise the exhaustive branch is the prefix-sharing DFS and
   sampled candidates resume from their memoized prefix states. The
   same applications in the same order yield the same states, so both
   produce the same results. *)
let search_with ~naive ?(config = default_config) evaluator op =
  let best_schedule = ref [ Schedule.Vectorize ] in
  let best_speedup = ref 0.0 in
  let explored = ref 0 in
  let trace = ref [] in
  let record sched speedup =
    incr explored;
    if speedup > !best_speedup then begin
      best_speedup := speedup;
      best_schedule := sched
    end;
    trace := (!explored, !best_speedup) :: !trace
  in
  let evaluate sched =
    match Evaluator.schedule_speedup evaluator op sched with
    | Error _ -> ()
    | Ok speedup -> record sched speedup
  in
  let sps = spaces config op in
  if space_total config op <= config.max_schedules then begin
    (* Small space: full exhaustive enumeration. *)
    if naive then Seq.iter evaluate (candidates config op)
    else
      iter_candidates_shared config op ~eval:(fun sched final ->
          record sched (Evaluator.speedup evaluator final))
  end
  else begin
    (* Large space: budgeted seeded sampling without replacement. *)
    let evaluate_draw =
      if naive then fun (_, sched) -> evaluate sched
      else begin
        let memo = prefix_memo (Sched_state.init op) sps in
        fun (d, sched) ->
          Option.iter
            (fun final -> record sched (Evaluator.speedup evaluator final))
            (Option.bind (draw_prefix memo d) (finish_draw d))
      end
    in
    evaluate [ Schedule.Vectorize ];
    let next = sampler config op sps ~seen:(Hashtbl.create 1024) in
    let rec loop () =
      if !explored < config.max_schedules then
        match next () with
        | None -> ()
        | Some draw ->
            evaluate_draw draw;
            loop ()
    in
    loop ()
  end;
  {
    best_schedule = !best_schedule;
    best_speedup = !best_speedup;
    explored = !explored;
    trace = Array.of_list (List.rev !trace);
  }

(* ---- Domain-parallel search ---------------------------------------

   The decomposition follows Par_eval's determinism contract: subtask
   ENUMERATION stays sequential and jobs-independent, only EVALUATION
   fans out across the pool (on evaluator forks with trie-path-keyed
   noise streams), and results merge on this domain in enumeration
   order, replaying the sequential bookkeeping verbatim. With a
   noiseless evaluator every [jobs] value is byte-identical. *)

let default_frontier_depth = 2
let sampling_chunk = 32

let search_parallel ~config ~frontier_depth ~pool evaluator op =
  let best_schedule = ref [ Schedule.Vectorize ] in
  let best_speedup = ref 0.0 in
  let explored = ref 0 in
  let trace = ref [] in
  let record sched speedup =
    incr explored;
    if speedup > !best_speedup then begin
      best_speedup := speedup;
      best_schedule := sched
    end;
    trace := (!explored, !best_speedup) :: !trace
  in
  let sps = spaces config op in
  let total_size = space_total config op in
  (* Forks count their own evaluations; their counters are added back
     into the parent so [Evaluator.counters] reads the same as after a
     sequential run. *)
  if total_size <= config.max_schedules then begin
    (* Exhaustive: one pool task per frontier subtask. The trivial
       vectorize candidate is evaluated here on the parent, exactly
       where the sequential DFS evaluates it. *)
    let root, tasks = subtasks ~frontier_depth config op in
    (match Sched_state.apply root Schedule.Vectorize with
    | Ok final ->
        record [ Schedule.Vectorize ] (Evaluator.speedup evaluator final)
    | Error _ -> ());
    let base = Par_eval.noise_base evaluator in
    let results =
      Util.Domain_pool.map_array pool
        (fun (i, st) ->
          let fork = Par_eval.derived_fork evaluator ~base ~stream:i in
          let out = ref [] in
          run_subtask config st ~eval:(fun sched final ->
              out := (sched, Evaluator.speedup fork final) :: !out);
          (List.rev !out, Evaluator.counters fork))
        (Array.of_list (List.mapi (fun i st -> (i, st)) tasks))
    in
    Array.iter
      (fun (leaves, c) ->
        Evaluator.add_counters evaluator c;
        List.iter (fun (sched, s) -> record sched s) leaves)
      results
  end
  else begin
    (* Sampled fallback: candidate DRAWS stay sequential on this domain
       — the rng / dedup / attempts stream is exactly the jobs=1 one —
       and only evaluations fan out, in chunks merged in draw order.
       The draws also resolve their memoized prefix states here (the
       memo is this domain's), so pool tasks start from shared
       immutable states. Each chunk asks for at most the remaining
       budget, so successes never overflow it; when chunk evaluations
       fail the next chunk draws more, just as the sequential loop
       redraws after a failure. *)
    (match Evaluator.schedule_speedup evaluator op [ Schedule.Vectorize ] with
    | Error _ -> ()
    | Ok s -> record [ Schedule.Vectorize ] s);
    let base = Par_eval.noise_base evaluator in
    let next = sampler config op sps ~seen:(Hashtbl.create 1024) in
    let memo = prefix_memo (Sched_state.init op) sps in
    let rec draw_chunk k acc =
      if k = 0 then List.rev acc
      else
        match next () with
        | None -> List.rev acc
        | Some (d, sched) ->
            draw_chunk (k - 1) ((d, sched, draw_prefix memo d) :: acc)
    in
    let cand_idx = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !explored < config.max_schedules do
      match
        draw_chunk (min sampling_chunk (config.max_schedules - !explored)) []
      with
      | [] -> exhausted := true
      | chunk ->
          let tagged =
            Array.of_list (List.mapi (fun k c -> (!cand_idx + k, c)) chunk)
          in
          cand_idx := !cand_idx + List.length chunk;
          let results =
            Util.Domain_pool.map_array pool
              (fun (i, (d, _, after_par)) ->
                let fork = Par_eval.derived_fork evaluator ~base ~stream:i in
                (* Bind before reading the counter: tuple components
                   evaluate right-to-left, so an inline pair would read
                   [explored] before the evaluation bumps it. *)
                let r =
                  Option.map (Evaluator.speedup fork)
                    (Option.bind after_par (finish_draw d))
                in
                (r, Evaluator.counters fork))
              tagged
          in
          Array.iteri
            (fun k (r, c) ->
              Evaluator.add_counters evaluator c;
              if !explored < config.max_schedules then
                match r with
                | Some s ->
                    let _, (_, sched, _) = tagged.(k) in
                    record sched s
                | None -> ())
            results
    done
  end;
  {
    best_schedule = !best_schedule;
    best_speedup = !best_speedup;
    explored = !explored;
    trace = Array.of_list (List.rev !trace);
  }

let search ?(config = default_config) ?(jobs = 1) ?pool
    ?(frontier_depth = default_frontier_depth) evaluator op =
  if jobs < 1 then invalid_arg "Auto_scheduler.search: jobs must be >= 1";
  if jobs = 1 && Option.is_none pool then
    search_with ~naive:false ~config evaluator op
  else
    Par_eval.with_pool ?pool ~jobs (fun pool ->
        search_parallel ~config ~frontier_depth ~pool evaluator op)

let search_naive ?config evaluator op =
  search_with ~naive:true ?config evaluator op

(* Staged re-ranking: a cheap learned ranker scores every candidate in
   the budgeted set WITHOUT applying it (the surrogate's features come
   from the schedule parameters alone), then only the [rerank_k] most
   promising candidates pay for the exact path ([Sched_state.apply_all]
   plus the analytical cost model). [explored] counts exact evaluations
   only, so traces stay comparable with [search].

   The ranker is a plain closure — this layer cannot depend on
   lib/surrogate (perf < autosched < surrogate in the library order);
   the CLI / bench construct it from a trained checkpoint. *)
let default_rerank_k = 64

let gather_candidates config op =
  let sps = spaces config op in
  if space_total config op <= config.max_schedules then
    List.of_seq (candidates config op)
  else begin
    (* Same seeded sampling-without-replacement stream the exact search
       falls back to, collected instead of evaluated. *)
    let seen = Hashtbl.create 1024 in
    Hashtbl.add seen [ Schedule.Vectorize ] ();
    let next = sampler config op sps ~seen in
    let rec collect n acc =
      if n >= config.max_schedules then List.rev acc
      else
        match next () with
        | None -> List.rev acc
        | Some (_, sched) -> collect (n + 1) (sched :: acc)
    in
    collect 1 [ [ Schedule.Vectorize ] ]
  end

let search_staged ?(config = default_config) ?ranker
    ?(rerank_k = default_rerank_k) ?(jobs = 1) ?pool evaluator op =
  if jobs < 1 then
    invalid_arg "Auto_scheduler.search_staged: jobs must be >= 1";
  match ranker with
  | None -> search ~config ~jobs ?pool evaluator op
  | Some rank ->
      let cands = Array.of_list (gather_candidates config op) in
      (* One batched ranking pass over the WHOLE aggregated candidate
         set (the ranker amortizes it into a single network forward),
         then sort ascending by predicted log-seconds; ties (and equal
         predictions from a degenerate model) fall back to enumeration
         order, keeping the stage deterministic. *)
      let predictions = rank cands in
      if Array.length predictions <> Array.length cands then
        invalid_arg "Auto_scheduler.search_staged: ranker size mismatch";
      let scored =
        Array.mapi (fun i sched -> (predictions.(i), i, sched)) cands
      in
      Array.sort
        (fun (a, i, _) (b, j, _) ->
          match compare (a : float) b with 0 -> compare i j | c -> c)
        scored;
      let best_schedule = ref [ Schedule.Vectorize ] in
      let best_speedup = ref 0.0 in
      let explored = ref 0 in
      let trace = ref [] in
      let record sched speedup =
        incr explored;
        if speedup > !best_speedup then begin
          best_speedup := speedup;
          best_schedule := sched
        end;
        trace := (!explored, !best_speedup) :: !trace
      in
      let evaluate sched =
        match Evaluator.schedule_speedup evaluator op sched with
        | Error _ -> ()
        | Ok speedup -> record sched speedup
      in
      (* The trivial vectorize schedule is always exact-evaluated, so
         [best_speedup] is well-defined even if the ranker buries it.
         The survivors are selected before any evaluation (selection
         depends only on the ranking), which is what lets the parallel
         path fan their exact evaluations out. *)
      let trivial = [ Schedule.Vectorize ] in
      let trivial_key = Schedule.dedup_key trivial in
      let selected =
        let taken = ref 0 in
        let out = ref [] in
        Array.iter
          (fun (_, _, sched) ->
            if !taken < rerank_k && Schedule.dedup_key sched <> trivial_key
            then begin
              incr taken;
              out := sched :: !out
            end)
          scored;
        List.rev !out
      in
      if jobs = 1 && Option.is_none pool then begin
        evaluate trivial;
        List.iter evaluate selected
      end
      else
        Par_eval.with_pool ?pool ~jobs (fun pool ->
            evaluate trivial;
            let base = Par_eval.noise_base evaluator in
            let tagged =
              Array.of_list (List.mapi (fun i sched -> (i, sched)) selected)
            in
            let results =
              Util.Domain_pool.map_array pool
                (fun (i, sched) ->
                  let fork = Par_eval.derived_fork evaluator ~base ~stream:i in
                  (* let-bound: tuples evaluate right-to-left, and the
                     counter must be read after the evaluation. *)
                  let r = Evaluator.schedule_speedup fork op sched in
                  (r, Evaluator.counters fork))
                tagged
            in
            Array.iteri
              (fun k (r, c) ->
                Evaluator.add_counters evaluator c;
                match r with
                | Ok s -> record (snd tagged.(k)) s
                | Error _ -> ())
              results);
      {
        best_schedule = !best_schedule;
        best_speedup = !best_speedup;
        explored = !explored;
        trace = Array.of_list (List.rev !trace);
      }
