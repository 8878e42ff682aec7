(* Autoschedule phase: the 67 validation ops at the Figure 5 budget, each
   on a fresh evaluator the way one [autoschedule] call pays — exact
   search at jobs 1, again at jobs 2 on a pool made before the clock
   starts, then the staged search with the surrogate trained in set-up. *)

let budget = 1500

let config =
  { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }

let ms_of_ns ns = Int64.to_float ns /. 1e6

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Best schedule, speedup, explored and a digest of the whole trace. *)
let fingerprint (r : Auto_scheduler.result) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (i, s) -> Printf.bprintf b "%d:%h;" i s)
    r.Auto_scheduler.trace;
  Printf.sprintf "%s|%h|%d|%s"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored
    (Digest.to_hex (Digest.string (Buffer.contents b)))

type cache_tally = {
  mutable base_hits : int;
  mutable base_misses : int;
  mutable state_hits : int;
  mutable state_misses : int;
  mutable contended : int;
}

let tally () =
  { base_hits = 0; base_misses = 0; state_hits = 0; state_misses = 0; contended = 0 }

let absorb t (s : Evaluator.cache_stats) =
  let b = s.Evaluator.base in
  t.base_hits <- t.base_hits + b.Util.Sharded_cache.hits;
  t.base_misses <- t.base_misses + b.Util.Sharded_cache.misses;
  t.contended <- t.contended + b.Util.Sharded_cache.contention;
  Option.iter
    (fun (st : Util.Sharded_cache.stats) ->
      t.state_hits <- t.state_hits + st.Util.Sharded_cache.hits;
      t.state_misses <- t.state_misses + st.Util.Sharded_cache.misses;
      t.contended <- t.contended + st.Util.Sharded_cache.contention)
    s.Evaluator.state

type pass = {
  walls_ms : float list;  (** per-op wall, in op order; min over repeats *)
  results : Auto_scheduler.result array;
  wall_s : float;  (** the whole pass *)
  cpu_s : float;  (** process CPU during the pass *)
  caches : cache_tally;
  cost_model_calls : int;
}

let one_pass ?pool ~jobs ops =
  let caches = tally () in
  let hook_calls = Atomic.make 0 in
  let walls = ref [] in
  let cpu0 = cpu_seconds () in
  let t0 = Span.now_ns () in
  let results =
    Array.map
      (fun op ->
        let ev = Evaluator.create () in
        if !Span.enabled then
          Evaluator.set_measure_hook ev
            (Some (fun _ ~seconds:_ -> Atomic.incr hook_calls));
        let s0 = Span.now_ns () in
        let r =
          Span.with_span ~layer:"autosched" "Auto_scheduler.search" (fun () ->
              Auto_scheduler.search ~config ~jobs ?pool ev op)
        in
        walls := ms_of_ns (Int64.sub (Span.now_ns ()) s0) :: !walls;
        absorb caches (Evaluator.cache_stats ev);
        r)
      ops
  in
  let wall_s = ms_of_ns (Int64.sub (Span.now_ns ()) t0) /. 1e3 in
  {
    walls_ms = List.rev !walls;
    results;
    wall_s;
    cpu_s = cpu_seconds () -. cpu0;
    caches;
    cost_model_calls = Atomic.get hook_calls;
  }

(* The first of several passes, with each op's fastest wall over all of
   them (a shared host only ever slows a pass down); every later pass
   must reproduce the first pass's results exactly. *)
let merge ~what ~results ~walls ops = function
  | [] -> invalid_arg "Phase_search.merge"
  | first :: rest ->
      List.iter
        (fun p ->
          Array.iteri
            (fun i r ->
              Report.check
                (Printf.sprintf "search %s: %s repeat differs"
                   ops.(i).Linalg.op_name what)
                (fingerprint r = fingerprint (results first).(i)))
            (results p))
        rest;
      (first, List.fold_left (fun ws p -> List.map2 Float.min ws (walls p)) (walls first) rest)

let merge_exact ~jobs ops passes =
  let first, walls_ms =
    merge ~what:(Printf.sprintf "jobs %d" jobs) ~results:(fun p -> p.results)
      ~walls:(fun p -> p.walls_ms) ops passes
  in
  { first with walls_ms }

type staged = {
  s_results : Auto_scheduler.result array;
  s_walls_ms : float list;  (** per-op wall; min over repeats *)
  ranked : int;  (** candidates the surrogate scored *)
  rank_hits : int;
  rank_misses : int;
}

let staged_pass model ops =
  let ranker =
    Surrogate.Ranker.create ~machine:Machine.e5_2680_v4 model
  in
  let ranked = ref 0 in
  let walls = ref [] in
  let results =
    Array.map
      (fun op ->
        let ev = Evaluator.create () in
        Surrogate.Ranker.attach ranker ev;
        let score = Surrogate.Ranker.schedule_scorer ranker op in
        let ranker cands =
          ranked := !ranked + Array.length cands;
          Span.with_span ~calls:(Array.length cands) ~layer:"surrogate"
            "ranker" (fun () -> score cands)
        in
        let s0 = Span.now_ns () in
        let r =
          Span.with_span ~layer:"autosched" "Auto_scheduler.search_staged"
            (fun () -> Auto_scheduler.search_staged ~config ~ranker ev op)
        in
        walls := ms_of_ns (Int64.sub (Span.now_ns ()) s0) :: !walls;
        r)
      ops
  in
  let st = Surrogate.Ranker.cache_stats ranker in
  {
    s_results = results;
    s_walls_ms = List.rev !walls;
    ranked = !ranked;
    rank_hits = st.Util.Sharded_cache.hits;
    rank_misses = st.Util.Sharded_cache.misses;
  }

let merge_staged ops passes =
  let first, s_walls_ms =
    merge ~what:"staged" ~results:(fun p -> p.s_results)
      ~walls:(fun p -> p.s_walls_ms) ops passes
  in
  { first with s_walls_ms }

let speedups results =
  Array.to_list (Array.map (fun r -> r.Auto_scheduler.best_speedup) results)

(* Gates: jobs 2 reproduces jobs 1 on every op, and every best schedule
   (exact and staged) re-prices to its reported speedup. *)
let check ops ~j1 ~j2 ~staged =
  Array.iteri
    (fun i op ->
      let name = op.Linalg.op_name in
      Report.check
        (Printf.sprintf "search %s: jobs 2 fingerprint differs from jobs 1" name)
        (fingerprint j1.results.(i) = fingerprint j2.results.(i));
      List.iter
        (fun (label, (r : Auto_scheduler.result)) ->
          let repriced =
            Evaluator.schedule_speedup (Evaluator.create ()) op
              r.Auto_scheduler.best_schedule
          in
          Report.check
            (Printf.sprintf "search %s: %s best does not re-price" name label)
            (repriced = Ok r.Auto_scheduler.best_speedup))
        [ ("exact", j1.results.(i)); ("staged", staged.s_results.(i)) ])
    ops

let exhaustive_count ops =
  Array.fold_left
    (fun n op -> if Auto_scheduler.space_total config op <= budget then n + 1 else n)
    0 ops

let end_to_end ~j1 ~j2 ~staged =
  Report.add "search.op_ms.mean" "ms" (Util.Stats.mean j1.walls_ms);
  Report.add "search.op_ms.p85" "ms" (Report.tail_value ~beyond:10 j1.walls_ms);
  Report.add "search.op_ms.mean.j2" "ms" (Util.Stats.mean j2.walls_ms);
  Report.add "search.staged_cands_per_s" "1/s"
    (float_of_int staged.ranked
    /. (List.fold_left ( +. ) 0.0 staged.s_walls_ms /. 1e3));
  Report.add "search.speedup_geomean" "x" (Util.Stats.geomean (speedups j1.results));
  Report.add "search.staged_speedup_geomean" "x"
    (Util.Stats.geomean (speedups staged.s_results))

(* Replay the validation ops' candidate sets through the transform and
   perf layers' public functions, one span per call — the per-layer
   split of the work [Auto_scheduler.search] does internally. *)
let digest_reps = 256

let replay ops =
  let rejected = ref 0 in
  Array.iter
    (fun op ->
      let ev = Evaluator.create () in
      Span.with_span ~layer:"bench" "replay.search_op" (fun () ->
          List.iter
            (fun sched ->
              match
                Span.with_span ~layer:"transform" "Sched_state.apply_all"
                  (fun () -> Sched_state.apply_all op sched)
              with
              | Error _ -> incr rejected
              | Ok st ->
                  Span.with_span ~calls:digest_reps ~layer:"transform"
                    "Sched_state.digest" (fun () ->
                      for _ = 1 to digest_reps do
                        ignore (Sys.opaque_identity (Sched_state.digest st))
                      done);
                  ignore
                    (Span.with_span ~layer:"perf" "Evaluator.state_seconds"
                       (fun () -> Evaluator.state_seconds ev st)))
            (Auto_scheduler.gather_candidates config op)))
    ops;
  !rejected

let per_layer ops ~j1 ~j2 ~staged ~rejected =
  Report.add "autosched.search.ms" "ms"
    (Span.per_span ~unit_ns:1e6 "Auto_scheduler.search");
  Report.add "autosched.explored" "count"
    (float_of_int
       (Array.fold_left (fun n r -> n + r.Auto_scheduler.explored) 0 j1.results));
  let exhaustive = exhaustive_count ops in
  Report.add "autosched.ops_exhaustive" "count" (float_of_int exhaustive);
  Report.add "autosched.ops_sampled" "count"
    (float_of_int (Array.length ops - exhaustive));
  Report.add "transform.apply_all.us" "us"
    (Span.per_call ~unit_ns:1e3 "Sched_state.apply_all");
  Report.add "transform.apply_all.calls" "count"
    (float_of_int (Span.totals "Sched_state.apply_all").Span.calls);
  Report.add "transform.apply_all.rejected" "count" (float_of_int rejected);
  Report.add "transform.digest.ns" "ns" (Span.per_call "Sched_state.digest");
  Report.add "perf.state_seconds.us" "us"
    (Span.per_call ~unit_ns:1e3 "Evaluator.state_seconds");
  Report.add "perf.cost_model.calls" "count" (float_of_int j1.cost_model_calls);
  Report.add "perf.state_cache.hit_ratio" "ratio"
    (Report.ratio j1.caches.state_hits j1.caches.state_misses);
  Report.add "perf.base_cache.hit_ratio" "ratio"
    (Report.ratio j1.caches.base_hits j1.caches.base_misses);
  Report.add "perf.cache.contended" "count" (float_of_int j2.caches.contended);
  Report.add "surrogate.rank.ms" "ms" (Span.per_span ~unit_ns:1e6 "ranker");
  Report.add "surrogate.rank.us_per_cand" "us" (Span.per_call ~unit_ns:1e3 "ranker");
  Report.add "surrogate.rerank.exact_evals" "count"
    (float_of_int
       (Array.fold_left
          (fun n r -> n + r.Auto_scheduler.explored)
          0 staged.s_results));
  Report.add "surrogate.cache.hit_ratio" "ratio"
    (Report.ratio staged.rank_hits staged.rank_misses)
