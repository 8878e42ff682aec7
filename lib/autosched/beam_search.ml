type config = {
  beam_width : int;
  max_depth : int;
  sizes_per_loop : int;
  max_parallel_combos : int;
  max_tile_size : int;
}

let default_config =
  {
    beam_width = 8;
    max_depth = 7;
    sizes_per_loop = 3;
    max_parallel_combos = 24;
    max_tile_size = 128;
  }

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;
}

(* Largest [k] divisors of [trip] that are proper and within bounds. *)
let size_options config trip =
  let divisors =
    List.filter
      (fun d -> d > 1 && d < trip && d <= config.max_tile_size)
      (Loop_transforms.divisors trip)
  in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  take config.sizes_per_loop (List.rev divisors)

(* Single transformations applicable to [state]: one- and two-loop
   tilings, bounded parallel combos over leading parallel dims, all
   adjacent swaps, im2col. Vectorization is handled by the driver. *)
let expansions config (state : Sched_state.t) =
  let trips = Sched_state.point_trip_counts state in
  let n = Array.length trips in
  let acc = ref [] in
  let add tr = acc := tr :: !acc in
  (* single-loop tiles *)
  for l = 0 to n - 1 do
    List.iter
      (fun size ->
        let sizes = Array.make n 0 in
        sizes.(l) <- size;
        add (Schedule.Tile sizes))
      (size_options config trips.(l))
  done;
  (* two-loop tiles on adjacent pairs (largest option each) *)
  for l = 0 to n - 2 do
    match (size_options config trips.(l), size_options config trips.(l + 1)) with
    | s1 :: _, s2 :: _ ->
        let sizes = Array.make n 0 in
        sizes.(l) <- s1;
        sizes.(l + 1) <- s2;
        add (Schedule.Tile sizes)
    | _, _ -> ()
  done;
  (* parallelization: combos over the leading parallelizable loops *)
  if Sched_state.can_parallelize state then begin
    let eligible =
      List.filter
        (fun l -> Sched_state.parallelizable_loop state l && trips.(l) > 1)
        (List.init (min n 3) (fun l -> l))
    in
    let combos = ref [] in
    let rec build chosen = function
      | [] -> if chosen <> [] then combos := chosen :: !combos
      | l :: rest ->
          build chosen rest;
          List.iter
            (fun size -> build ((l, size) :: chosen) rest)
            (size_options config trips.(l))
    in
    build [] eligible;
    let combos = List.filteri (fun i _ -> i < config.max_parallel_combos) !combos in
    List.iter
      (fun combo ->
        let sizes = Array.make n 0 in
        List.iter (fun (l, size) -> sizes.(l) <- size) combo;
        add (Schedule.Parallelize sizes))
      combos
  end;
  (* interchange *)
  if Sched_state.can_interchange state then
    for i = 0 to n - 2 do
      add (Schedule.Swap i)
    done;
  if Sched_state.can_im2col state then add Schedule.Im2col;
  List.rev !acc

let default_rerank_k = 32

(* Stage-1 selection at one depth: optional batched surrogate ranking
   of the deduplicated children — ONE network forward over the whole
   depth's aggregated candidate set — then the [rerank_k] best survive.
   Ties keep expansion order, so the stage is deterministic. *)
let select_candidates ?ranker ~rerank_k collected =
  match ranker with
  | None -> collected
  | Some rank ->
      let arr = Array.of_list collected in
      let predictions = rank arr in
      if Array.length predictions <> Array.length arr then
        invalid_arg "Beam_search.search: ranker size mismatch";
      let indexed =
        List.mapi (fun i child -> (predictions.(i), i, child)) collected
      in
      let sorted =
        List.sort
          (fun (a, i, _) (b, j, _) ->
            match compare (a : float) b with 0 -> compare i j | c -> c)
          indexed
      in
      List.filteri (fun i _ -> i < rerank_k) sorted
      |> List.map (fun (_, _, child) -> child)

let search_seq ~config ?ranker ~rerank_k evaluator op =
  let explored = ref 0 in
  (* Expansion is already prefix-shared: each child is one [apply] on
     its parent's state, never an [apply_all] replay. The remaining
     redundancy — distinct action sequences reaching the same nest
     (tile/swap transpositions, revisits across depths) — is absorbed
     by the evaluator's digest-keyed state-seconds cache inside
     [score]. *)
  (* Score = speedup with vectorization appended (virtually). *)
  let score (state : Sched_state.t) =
    incr explored;
    match Sched_state.apply state Schedule.Vectorize with
    | Ok v -> Evaluator.speedup evaluator v
    | Error _ -> Evaluator.speedup evaluator state
  in
  let seen = Hashtbl.create 256 in
  let remember (state : Sched_state.t) =
    let key = Schedule.dedup_key state.Sched_state.applied in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  let root = Sched_state.init op in
  let best_speedup = ref (score root) in
  let best_schedule = ref [ Schedule.Vectorize ] in
  let beam = ref [ (root, !best_speedup) ] in
  let depth = ref 0 in
  while !depth < config.max_depth - 1 && !beam <> [] do
    incr depth;
    (* Gather this depth's deduplicated children unscored; what gets the
       exact oracle depends on the mode below. *)
    let collected = ref [] in
    List.iter
      (fun (state, _) ->
        List.iter
          (fun tr ->
            match Sched_state.apply state tr with
            | Error _ -> ()
            | Ok child -> if remember child then collected := child :: !collected)
          (expansions config state))
      !beam;
    let collected = List.rev !collected in
    let candidates = select_candidates ?ranker ~rerank_k collected in
    let children = ref [] in
    List.iter
      (fun child ->
        let s = score child in
        if s > !best_speedup then begin
          best_speedup := s;
          best_schedule := child.Sched_state.applied @ [ Schedule.Vectorize ]
        end;
        children := (child, s) :: !children)
      candidates;
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) !children in
    beam := List.filteri (fun i _ -> i < config.beam_width) sorted
  done;
  { best_schedule = !best_schedule; best_speedup = !best_speedup; explored = !explored }

(* Domain-parallel beam search, following Par_eval's determinism
   contract. Per depth: expansion (pure [apply] per beam entry) fans
   out and merges in entry x expansion order; dedup and the optional
   batched ranking stay on this domain; exact scoring fans out on
   evaluator forks whose noise streams are indexed by a global
   scored-state counter; the merge replays the sequential beam update
   in candidate order (including its prepend-then-stable-sort tie
   behavior). Byte-identical to [search_seq] for noiseless evaluators,
   for any job count. *)
let search_par ~config ?ranker ~rerank_k ~pool evaluator op =
  let explored = ref 0 in
  let seen = Hashtbl.create 256 in
  let remember (state : Sched_state.t) =
    let key = Schedule.dedup_key state.Sched_state.applied in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  let root = Sched_state.init op in
  (* The root is scored on the parent evaluator — the same first draw
     the sequential search makes; every later scoring runs on a
     derived-stream fork. *)
  let score_root state =
    incr explored;
    match Sched_state.apply state Schedule.Vectorize with
    | Ok v -> Evaluator.speedup evaluator v
    | Error _ -> Evaluator.speedup evaluator state
  in
  let best_speedup = ref (score_root root) in
  let best_schedule = ref [ Schedule.Vectorize ] in
  let base = Par_eval.noise_base evaluator in
  let scored_total = ref 0 in
  let beam = ref [ (root, !best_speedup) ] in
  let depth = ref 0 in
  while !depth < config.max_depth - 1 && !beam <> [] do
    incr depth;
    let expanded =
      Util.Domain_pool.map_array pool
        (fun ((state : Sched_state.t), _) ->
          List.filter_map
            (fun tr ->
              match Sched_state.apply state tr with
              | Error _ -> None
              | Ok child -> Some child)
            (expansions config state))
        (Array.of_list !beam)
    in
    let collected =
      List.filter remember (List.concat (Array.to_list expanded))
    in
    let candidates = select_candidates ?ranker ~rerank_k collected in
    let tagged =
      Array.of_list
        (List.mapi (fun k child -> (!scored_total + k, child)) candidates)
    in
    scored_total := !scored_total + Array.length tagged;
    let results =
      Util.Domain_pool.map_array pool
        (fun (i, (child : Sched_state.t)) ->
          let fork = Par_eval.derived_fork evaluator ~base ~stream:i in
          let s =
            match Sched_state.apply child Schedule.Vectorize with
            | Ok v -> Evaluator.speedup fork v
            | Error _ -> Evaluator.speedup fork child
          in
          (s, Evaluator.counters fork))
        tagged
    in
    let children = ref [] in
    Array.iteri
      (fun k (s, c) ->
        Evaluator.add_counters evaluator c;
        incr explored;
        let child = snd tagged.(k) in
        if s > !best_speedup then begin
          best_speedup := s;
          best_schedule := child.Sched_state.applied @ [ Schedule.Vectorize ]
        end;
        children := (child, s) :: !children)
      results;
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) !children in
    beam := List.filteri (fun i _ -> i < config.beam_width) sorted
  done;
  { best_schedule = !best_schedule; best_speedup = !best_speedup; explored = !explored }

let search ?(config = default_config) ?ranker ?(rerank_k = default_rerank_k)
    ?(jobs = 1) ?pool evaluator op =
  if jobs < 1 then invalid_arg "Beam_search.search: jobs must be >= 1";
  if jobs = 1 && Option.is_none pool then
    search_seq ~config ?ranker ~rerank_k evaluator op
  else
    Par_eval.with_pool ?pool ~jobs (fun pool ->
        search_par ~config ?ranker ~rerank_k ~pool evaluator op)
