(* The memoized evaluation pipeline: structural nest digests, the
   evaluator's state-seconds transposition cache, and prefix-sharing
   exhaustive search.

   The load-bearing properties, each pinned here:
   - the digest maintained incrementally across [Sched_state.apply]
     equals a from-scratch [Loop_nest.digest] of the current nest, on
     every state the candidate streams can reach (including im2col);
   - distinct nests get distinct digests (checked exhaustively over the
     search states of several ops, and probabilistically over random
     shapes) while renamed copies of one nest share a digest;
   - [Auto_scheduler.search] (prefix-sharing DFS + transposition cache)
     is bit-identical to [Auto_scheduler.search_naive] with caching
     disabled: same best schedule, best speedup, explored count, trace
     and noise-stream consumption, exhaustive and sampled branches both;
   - the sampling seed derives from [Linalg.digest], so same-named ops
     with different shapes draw different candidate streams;
   - the serve result-cache key distinguishes same-named ops with
     different shapes, and cached replies stay byte-identical. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Exact float equality: the differential contract is bit-identity, not
   closeness. *)
let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Digest soundness                                                   *)
(* ------------------------------------------------------------------ *)

(* Walk a candidate schedule step by step from [init], checking the
   incremental-digest invariant on every intermediate state. *)
let check_stepwise op sched =
  let st = ref (Sched_state.init op) in
  check_str "init digest is from-scratch"
    (Loop_nest.digest !st.Sched_state.nest)
    (Sched_state.digest !st);
  List.iter
    (fun tr ->
      match Sched_state.apply !st tr with
      | Error _ -> ()
      | Ok st' ->
          st := st';
          check_str
            (Printf.sprintf "digest after %s"
               (Schedule.to_string !st.Sched_state.applied))
            (Loop_nest.digest st'.Sched_state.nest)
            (Sched_state.digest st'))
    sched

let test_incremental_digest_equals_scratch () =
  let config = Auto_scheduler.default_config in
  List.iter
    (fun op ->
      Seq.iter
        (fun sched -> check_stepwise op sched)
        (Seq.take 300 (Auto_scheduler.candidates config op)))
    [ Test_helpers.small_matmul (); Test_helpers.small_conv () ]

let test_digest_name_invariant_structure_sensitive () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  let d = Loop_nest.digest nest in
  check_str "renaming the nest keeps the digest" d
    (Loop_nest.digest (Loop_nest.rename "something_else" nest));
  let bumped_ub =
    {
      nest with
      Loop_nest.loops =
        Array.mapi
          (fun i l ->
            if i = 0 then { l with Loop_nest.ub = l.Loop_nest.ub + 1 } else l)
          nest.Loop_nest.loops;
    }
  in
  check "changing a trip count changes the digest" true
    (d <> Loop_nest.digest bumped_ub);
  let kinded =
    {
      nest with
      Loop_nest.loops =
        Array.mapi
          (fun i l ->
            if i = 0 then { l with Loop_nest.kind = Loop_nest.Parallel } else l)
          nest.Loop_nest.loops;
    }
  in
  check "changing a loop kind changes the digest" true
    (d <> Loop_nest.digest kinded);
  let renamed_buffer =
    {
      nest with
      Loop_nest.buffers =
        List.map
          (fun (b, s) -> ((if b = "A" then "A2" else b), s))
          nest.Loop_nest.buffers;
    }
  in
  check "renaming a buffer (aliasing) changes the digest" true
    (d <> Loop_nest.digest renamed_buffer);
  let bumped_init =
    {
      nest with
      Loop_nest.inits =
        List.map (fun (b, v) -> (b, v +. 1.0)) nest.Loop_nest.inits;
    }
  in
  check "changing an init value changes the digest" true
    (d <> Loop_nest.digest bumped_init)

(* Exhaustive collision check over every state the search visits for a
   few ops: equal digests must mean equal structure (compare the
   pretty-printed nests under one name, since names are not hashed). *)
let test_digest_collision_free_over_search_states () =
  let seen : (string, string) Hashtbl.t = Hashtbl.create 512 in
  let states = ref 0 in
  let probe (st : Sched_state.t) =
    incr states;
    let d = Sched_state.digest st in
    let printed =
      Ir_printer.to_string (Loop_nest.rename "n" st.Sched_state.nest)
    in
    match Hashtbl.find_opt seen d with
    | None -> Hashtbl.replace seen d printed
    | Some other -> check_str "digest collision implies equal nests" other printed
  in
  let config = Auto_scheduler.default_config in
  List.iter
    (fun op ->
      Seq.iter
        (fun sched ->
          let st = ref (Sched_state.init op) in
          probe !st;
          List.iter
            (fun tr ->
              match Sched_state.apply !st tr with
              | Error _ -> ()
              | Ok st' ->
                  st := st';
                  probe st')
            sched)
        (Seq.take 400 (Auto_scheduler.candidates config op)))
    [
      Test_helpers.small_matmul ();
      Test_helpers.small_conv ();
      Test_helpers.small_maxpool ();
    ];
  check "visited a meaningful number of states" true (!states > 500)

let qcheck_digest_distinct_shapes =
  QCheck.Test.make ~name:"distinct matmul shapes get distinct nest digests"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let dim = int_range 1 24 in
         tup2 (tup3 dim dim dim) (tup3 dim dim dim)))
    (fun ((m1, n1, k1), (m2, n2, k2)) ->
      let d1 =
        Loop_nest.digest
          (Lower.to_loop_nest (Linalg.matmul ~name:"op" ~m:m1 ~n:n1 ~k:k1 ()))
      in
      let d2 =
        Loop_nest.digest
          (Lower.to_loop_nest (Linalg.matmul ~name:"op" ~m:m2 ~n:n2 ~k:k2 ()))
      in
      if (m1, n1, k1) = (m2, n2, k2) then d1 = d2 else d1 <> d2)

(* ------------------------------------------------------------------ *)
(* Evaluator state-seconds transposition cache                        *)
(* ------------------------------------------------------------------ *)

let vectorized_state op =
  match Sched_state.apply (Sched_state.init op) Schedule.Vectorize with
  | Ok st -> st
  | Error e -> Alcotest.failf "vectorize failed: %s" e

let test_state_cache_hits_and_stats () =
  let ev = Evaluator.create () in
  let st = vectorized_state (Test_helpers.small_matmul ()) in
  let s1 = Evaluator.state_seconds ev st in
  let s2 = Evaluator.state_seconds ev st in
  check_bits "repeat evaluation returns the same seconds" s1 s2;
  (match (Evaluator.cache_stats ev).Evaluator.state with
  | None -> Alcotest.fail "state cache should be on by default"
  | Some s ->
      check_int "one miss" 1 s.Util.Sharded_cache.misses;
      check_int "one hit" 1 s.Util.Sharded_cache.hits);
  check_int "explored counts logical calls, hits included" 2
    (Evaluator.counters ev).Evaluator.explored;
  let off = Evaluator.create ~state_cache_capacity:0 () in
  check "capacity 0 disables the state cache" true
    ((Evaluator.cache_stats off).Evaluator.state = None);
  check_bits "cached and uncached values agree" s1
    (Evaluator.state_seconds off st)

let test_state_cache_shared_across_forks () =
  let ev = Evaluator.create () in
  let st = vectorized_state (Test_helpers.small_matmul ()) in
  let f = Evaluator.fork ev in
  ignore (Evaluator.state_seconds f st);
  ignore (Evaluator.state_seconds ev st);
  match (Evaluator.cache_stats ev).Evaluator.state with
  | None -> Alcotest.fail "state cache missing"
  | Some s ->
      check_int "fork's miss visible through parent" 1
        s.Util.Sharded_cache.misses;
      check_int "parent hit the fork's entry" 1 s.Util.Sharded_cache.hits

let test_noise_stream_identical_cache_on_off () =
  let mk cap = Evaluator.create ~noise:0.05 ~noise_seed:7 ~state_cache_capacity:cap () in
  let on = mk 4096 and off = mk 0 in
  let ops =
    [ Test_helpers.small_matmul (); Test_helpers.small_conv () ]
  in
  (* Repeats included: the cached path must draw jitter exactly like
     the computing path. *)
  let states = List.concat_map (fun op -> [ vectorized_state op ]) ops in
  let states = states @ states @ states in
  List.iter
    (fun st ->
      check_bits "jittered speedup identical with cache on/off"
        (Evaluator.speedup on st) (Evaluator.speedup off st))
    states

(* ------------------------------------------------------------------ *)
(* Differential search equivalence                                    *)
(* ------------------------------------------------------------------ *)

let check_same_result name (a : Auto_scheduler.result)
    (b : Auto_scheduler.result) =
  check_str (name ^ ": best schedule")
    (Schedule.to_string a.Auto_scheduler.best_schedule)
    (Schedule.to_string b.Auto_scheduler.best_schedule);
  check_bits (name ^ ": best speedup") a.Auto_scheduler.best_speedup
    b.Auto_scheduler.best_speedup;
  check_int (name ^ ": explored") a.Auto_scheduler.explored
    b.Auto_scheduler.explored;
  check_int (name ^ ": trace length")
    (Array.length a.Auto_scheduler.trace)
    (Array.length b.Auto_scheduler.trace);
  Array.iteri
    (fun i (n, s) ->
      let n', s' = b.Auto_scheduler.trace.(i) in
      check_int (Printf.sprintf "%s: trace point %d index" name i) n n';
      check_bits (Printf.sprintf "%s: trace point %d speedup" name i) s s')
    a.Auto_scheduler.trace

let differential ?noise ?(budget = 20000) op =
  let mk cap =
    Evaluator.create ?noise ~noise_seed:11 ~state_cache_capacity:cap ()
  in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
  in
  let naive_ev = mk 0 in
  let naive = Auto_scheduler.search_naive ~config naive_ev op in
  let memo_ev = mk 65536 in
  let memo = Auto_scheduler.search ~config memo_ev op in
  check_same_result op.Linalg.op_name naive memo;
  check_int (op.Linalg.op_name ^ ": evaluator explored (jitter stream length)")
    (Evaluator.counters naive_ev).Evaluator.explored
    (Evaluator.counters memo_ev).Evaluator.explored

let test_differential_exhaustive () =
  differential (Test_helpers.small_matmul ());
  differential (Test_helpers.small_maxpool ())

let test_differential_exhaustive_im2col () =
  differential (Test_helpers.small_conv ())

let test_differential_exhaustive_noisy () =
  (* Noise makes any divergence in evaluation order or count visible as
     a jitter-stream shift: every subsequent value would differ. *)
  differential ~noise:0.05 (Test_helpers.small_matmul ());
  differential ~noise:0.05 (Test_helpers.small_conv ())

let test_differential_sampled_branch () =
  (* A space far over budget forces the seeded-sampling fallback in
     both implementations; they must share the RNG stream too. The
     naive search replays every candidate with apply_all, the memoized
     one resumes it from the shared (prefix; parallelize) state. *)
  differential ~budget:60 (Linalg.matmul ~m:64 ~n:64 ~k:64 ());
  differential ~noise:0.03 ~budget:60 (Linalg.matmul ~m:64 ~n:64 ~k:64 ());
  (* The conv's draws cover both memo levels: the im2col-prefixed
     space, and parallel combos drawn more than once. *)
  let conv = Test_helpers.small_conv () in
  let budget = 80 in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
  in
  check "conv samples" true (Auto_scheduler.space_total config conv > budget);
  let sampled = Auto_scheduler.gather_candidates config conv in
  let pars =
    List.concat_map
      (fun sched ->
        List.filter_map
          (function
            | Schedule.Parallelize sizes ->
                Some (List.hd sched = Schedule.Im2col, sizes)
            | _ -> None)
          sched)
      sampled
  in
  check "conv draws im2col candidates" true
    (List.exists (fun sched -> List.hd sched = Schedule.Im2col) sampled);
  check "conv draws a parallel combo twice" true
    (List.length (List.sort_uniq compare pars) < List.length pars);
  differential ~budget conv;
  differential ~noise:0.03 ~budget conv

let test_search_deterministic () =
  let op = Linalg.matmul ~m:64 ~n:64 ~k:64 () in
  let run () =
    let ev = Evaluator.create () in
    Auto_scheduler.search
      ~config:
        { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 50 }
      ev op
  in
  check_same_result "repeat run" (run ()) (run ())

let test_sampling_seed_from_shape () =
  let a = Linalg.matmul ~name:"mm" ~m:32 ~n:32 ~k:32 () in
  let b = Linalg.matmul ~name:"mm" ~m:64 ~n:64 ~k:64 () in
  check_int "seed pinned to Hashtbl.hash (Linalg.digest op)"
    (Hashtbl.hash (Linalg.digest a))
    (Auto_scheduler.sampling_seed a);
  check "same-named ops with different shapes get different seeds" true
    (Auto_scheduler.sampling_seed a <> Auto_scheduler.sampling_seed b);
  check "same op always gets the same seed" true
    (Auto_scheduler.sampling_seed a = Auto_scheduler.sampling_seed a)

(* Beam search rides the same caches without a dedicated DFS (its
   expansion is already incremental): results must not move when the
   transposition cache is enabled. *)
let test_beam_identical_with_cache () =
  let op = Linalg.matmul ~m:32 ~n:32 ~k:32 () in
  let run cap =
    Beam_search.search (Evaluator.create ~state_cache_capacity:cap ()) op
  in
  let off = run 0 and on = run 65536 in
  check_str "beam best schedule"
    (Schedule.to_string off.Beam_search.best_schedule)
    (Schedule.to_string on.Beam_search.best_schedule);
  check_bits "beam best speedup" off.Beam_search.best_speedup
    on.Beam_search.best_speedup;
  check_int "beam explored" off.Beam_search.explored on.Beam_search.explored

(* ------------------------------------------------------------------ *)
(* Serve cache keys                                                   *)
(* ------------------------------------------------------------------ *)

let test_serve_digest_distinguishes_shapes () =
  let a = Linalg.matmul ~name:"mm" ~m:32 ~n:32 ~k:32 () in
  let b = Linalg.matmul ~name:"mm" ~m:64 ~n:64 ~k:64 () in
  check "same-named ops with different shapes get different cache keys"
    true
    (Serve.Engine.nest_digest a <> Serve.Engine.nest_digest b);
  check_str "renamed copies of one op share a cache key"
    (Serve.Engine.nest_digest a)
    (Serve.Engine.nest_digest (Linalg.matmul ~name:"other" ~m:32 ~n:32 ~k:32 ()))

let test_serve_engine_replies_identical_across_cache () =
  match
    Serve.Engine.create
      { Serve.Engine.default_config with Serve.Engine.hidden = 16 }
  with
  | Error e -> Alcotest.failf "engine: %s" e
  | Ok engine ->
      let ops = [| Test_helpers.small_matmul (); Test_helpers.small_conv () |] in
      let render r =
        match r with
        | Ok (o : Serve.Engine.outcome) ->
            Printf.sprintf "%s|%.17g" o.Serve.Engine.schedule
              o.Serve.Engine.speedup
        | Error _ -> "error"
      in
      let first = Array.map render (Serve.Engine.solve_batch engine ops) in
      let second = Array.map render (Serve.Engine.solve_batch engine ops) in
      Array.iteri
        (fun i a -> check_str "cached reply identical to computed" a second.(i))
        first;
      check "second batch hit the result cache" true
        (Serve.Engine.cache_hits engine >= 2);
      let eval = Serve.Engine.evaluator_cache_stats engine in
      check "engine surfaces evaluator cache stats" true
        (match eval.Evaluator.state with
        | Some s -> s.Util.Sharded_cache.misses > 0
        | None -> false)

let suite =
  [
    Alcotest.test_case "incremental digest = from-scratch" `Quick
      test_incremental_digest_equals_scratch;
    Alcotest.test_case "digest ignores names, sees structure" `Quick
      test_digest_name_invariant_structure_sensitive;
    Alcotest.test_case "no collisions across search states" `Quick
      test_digest_collision_free_over_search_states;
    QCheck_alcotest.to_alcotest qcheck_digest_distinct_shapes;
    Alcotest.test_case "state cache: hits, stats, disable knob" `Quick
      test_state_cache_hits_and_stats;
    Alcotest.test_case "state cache shared across forks" `Quick
      test_state_cache_shared_across_forks;
    Alcotest.test_case "noise stream identical cache on/off" `Quick
      test_noise_stream_identical_cache_on_off;
    Alcotest.test_case "differential: exhaustive" `Quick
      test_differential_exhaustive;
    Alcotest.test_case "differential: exhaustive with im2col" `Quick
      test_differential_exhaustive_im2col;
    Alcotest.test_case "differential: exhaustive, noisy evaluator" `Quick
      test_differential_exhaustive_noisy;
    Alcotest.test_case "differential: sampled branch" `Quick
      test_differential_sampled_branch;
    Alcotest.test_case "search is deterministic" `Quick
      test_search_deterministic;
    Alcotest.test_case "sampling seed derives from op digest" `Quick
      test_sampling_seed_from_shape;
    Alcotest.test_case "beam search identical with cache" `Quick
      test_beam_identical_with_cache;
    Alcotest.test_case "serve digest distinguishes shapes" `Quick
      test_serve_digest_distinguishes_shapes;
    Alcotest.test_case "serve replies identical across cache" `Quick
      test_serve_engine_replies_identical_across_cache;
  ]
