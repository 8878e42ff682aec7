(* Cost model and evaluator: directional properties the RL reward
   relies on. Absolute times are model outputs, so the tests check
   orderings and invariants, not constants. *)

let machine = Machine.e5_2680_v4

let seconds_of op sched =
  let st = Result.get_ok (Sched_state.apply_all op sched) in
  Cost_model.seconds ~machine ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
    ~packing_elements:st.Sched_state.packing_elements st.Sched_state.nest

let big_matmul () = Linalg.matmul ~m:512 ~n:512 ~k:512 ()

let test_positive_time () =
  let t = seconds_of (big_matmul ()) [] in
  Alcotest.(check bool) "positive" true (t > 0.0 && Float.is_finite t)

let test_vectorize_helps () =
  let op = big_matmul () in
  Alcotest.(check bool) "vectorized faster" true
    (seconds_of op [ Schedule.Vectorize ] < seconds_of op [])

let test_parallel_helps () =
  let op = big_matmul () in
  Alcotest.(check bool) "parallel faster" true
    (seconds_of op [ Schedule.Parallelize [| 64; 64; 0 |] ] < seconds_of op [])

let test_parallel_capped_by_cores () =
  let op = big_matmul () in
  let r =
    let st =
      Result.get_ok
        (Sched_state.apply_all op [ Schedule.Parallelize [| 8; 8; 0 |] ])
    in
    Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
      st.Sched_state.nest
  in
  Alcotest.(check bool) "factor <= cores" true
    (r.Cost_model.parallel_factor <= float_of_int machine.Machine.cores)

let test_tiling_reduces_l2_traffic () =
  (* Tiled matmul re-streams B far less often. *)
  let op = big_matmul () in
  let traffic sched level =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    let r =
      Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
        st.Sched_state.nest
    in
    let lt = List.find (fun t -> t.Cost_model.level = level) r.Cost_model.traffic in
    lt.Cost_model.miss_lines
  in
  Alcotest.(check bool) "less L2 traffic when tiled" true
    (traffic [ Schedule.Tile [| 64; 64; 64 |] ] "l2" < traffic [] "l2")

let test_interchange_changes_time () =
  (* Moving the reduction off the innermost position changes the cost
     (breaks the accumulator chain but loses B locality). *)
  let op = big_matmul () in
  let t1 = seconds_of op [] in
  let t2 = seconds_of op [ Schedule.Swap 1 ] in
  Alcotest.(check bool) "different" true (Float.abs (t1 -. t2) > 1e-12)

let test_vector_efficiency_contiguous () =
  (* Vectorizing the n loop of matmul (contiguous in B and C) gets full
     lane efficiency; k (column-strided B) does not. *)
  let op = big_matmul () in
  let eff sched =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    (Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
       st.Sched_state.nest)
      .Cost_model.vector_efficiency
  in
  let eff_n = eff [ Schedule.Swap 1; Schedule.Vectorize ] in
  let eff_k = eff [ Schedule.Vectorize ] in
  Alcotest.(check (float 1e-9)) "n loop full lanes" 1.0 eff_n;
  Alcotest.(check bool) "k loop also contiguous in A" true (eff_k > 0.0)

let test_launch_overhead_counted () =
  let op = big_matmul () in
  let st =
    Result.get_ok
      (Sched_state.apply_all op
         [ Schedule.Tile [| 8; 0; 0 |]; Schedule.Parallelize [| 0; 64; 0 |] ])
  in
  let r =
    Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
      st.Sched_state.nest
  in
  (* The tile band loop (trip 64) sits outside the parallel band. *)
  Alcotest.(check int) "one launch per outer iteration" 64 r.Cost_model.launches

let test_packing_cost_charged () =
  let conv =
    Linalg.conv2d
      {
        Linalg.batch = 1;
        in_h = 30;
        in_w = 30;
        channels = 16;
        kernel_h = 3;
        kernel_w = 3;
        filters = 32;
        stride = 1;
      }
  in
  let st = Result.get_ok (Sched_state.apply_all conv [ Schedule.Im2col ]) in
  let r =
    Cost_model.estimate ~machine ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
      ~packing_elements:st.Sched_state.packing_elements st.Sched_state.nest
  in
  Alcotest.(check bool) "packing charged" true (r.Cost_model.packing_seconds > 0.0)

let test_more_iterations_cost_more () =
  let t1 = seconds_of (Linalg.matmul ~m:128 ~n:128 ~k:128 ()) [] in
  let t2 = seconds_of (Linalg.matmul ~m:256 ~n:256 ~k:256 ()) [] in
  Alcotest.(check bool) "monotone in size" true (t2 > t1)

(* --- evaluator --- *)

let test_evaluator_speedup_one_for_identity () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  let st = Sched_state.init op in
  Alcotest.(check (float 1e-9)) "identity speedup" 1.0 (Evaluator.speedup ev st)

let test_evaluator_base_cached () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  let a = Evaluator.base_seconds ev op in
  let b = Evaluator.base_seconds ev op in
  Alcotest.(check (float 1e-12)) "cached" a b

let test_evaluator_counts_measurements () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  Evaluator.reset_explored ev;
  ignore (Evaluator.schedule_speedup ev op [ Schedule.Vectorize ]);
  ignore (Evaluator.schedule_speedup ev op [ Schedule.Swap 0; Schedule.Vectorize ]);
  Alcotest.(check int) "two measurements" 2 (Evaluator.explored ev)

let test_evaluator_schedule_error () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  Alcotest.(check bool) "bad schedule errors" true
    (Result.is_error
       (Evaluator.schedule_speedup ev op [ Schedule.Tile [| 7; 0; 0 |] ]))

let test_timeout_floor () =
  (* Speedups are floored at 1/timeout_factor by the adaptive timeout. *)
  let ev = Evaluator.create () in
  let op = Linalg.add [| 64; 64 |] in
  (* A pathological schedule: tile with size 1 everywhere then more
     levels; might not trigger the timeout, so only the floor invariant
     is checked. *)
  match
    Sched_state.apply_all op
      [ Schedule.Tile [| 1; 1 |]; Schedule.Tile [| 1; 1 |]; Schedule.Parallelize [| 1; 1 |] ]
  with
  | Error _ -> ()
  | Ok st ->
      Alcotest.(check bool) "floored" true
        (Evaluator.speedup ev st >= (1.0 /. Evaluator.timeout_factor) -. 1e-9)

(* --- cache simulator --- *)

let test_cache_sim_hit_after_miss () =
  let sim = Cache_sim.create Machine.tiny_test_machine in
  Cache_sim.access sim ~buf:"x" ~index:0 ~elem_bytes:4;
  Cache_sim.access sim ~buf:"x" ~index:1 ~elem_bytes:4;
  (* same line *)
  match Cache_sim.stats sim with
  | { Cache_sim.name = "l1"; accesses; misses } :: _ ->
      Alcotest.(check int) "two accesses" 2 accesses;
      Alcotest.(check int) "one miss" 1 misses
  | _ -> Alcotest.fail "expected l1 first"

let test_cache_sim_capacity_eviction () =
  let sim = Cache_sim.create Machine.tiny_test_machine in
  (* L1 is 1 KiB = 16 lines; stream 64 distinct lines twice: second pass
     still misses (capacity). *)
  for pass = 1 to 2 do
    ignore pass;
    for i = 0 to 63 do
      Cache_sim.access sim ~buf:"x" ~index:(i * 16) ~elem_bytes:4
    done
  done;
  match Cache_sim.stats sim with
  | { Cache_sim.misses; _ } :: _ ->
      Alcotest.(check int) "all L1 misses" 128 misses
  | [] -> Alcotest.fail "no stats"

let test_cache_sim_small_footprint_reuse () =
  let sim = Cache_sim.create Machine.tiny_test_machine in
  for pass = 1 to 10 do
    ignore pass;
    for i = 0 to 7 do
      Cache_sim.access sim ~buf:"x" ~index:(i * 16) ~elem_bytes:4
    done
  done;
  match Cache_sim.stats sim with
  | { Cache_sim.misses; _ } :: _ -> Alcotest.(check int) "only cold misses" 8 misses
  | [] -> Alcotest.fail "no stats"

let test_cache_sim_validates_tiling_direction () =
  (* The simulated L2 miss count for a tiled small matmul must not
     exceed the untiled one — same direction as the analytical model. *)
  let op = Linalg.matmul ~m:32 ~n:32 ~k:32 () in
  let misses sched level_idx =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    match Cache_sim.simulate_nest ~machine:Machine.tiny_test_machine st.Sched_state.nest with
    | Error e -> Alcotest.fail e
    | Ok (_, stats) -> (List.nth stats level_idx).Cache_sim.misses
  in
  let untiled = misses [] 1 in
  let tiled = misses [ Schedule.Tile [| 8; 8; 8 |] ] 1 in
  Alcotest.(check bool)
    (Printf.sprintf "tiled %d <= untiled %d" tiled untiled)
    true (tiled <= untiled)

let qcheck_speedup_positive =
  QCheck.Test.make ~name:"speedups are strictly positive" ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let op = Generator.random_op rng
          (Util.Rng.choice rng [| "matmul"; "conv2d"; "maxpool"; "add"; "relu" |]) in
      let ev = Evaluator.create () in
      let st = Sched_state.init op in
      Evaluator.speedup ev st > 0.0)

(* Bit pin of the cost model: the IEEE bits of every estimate field the
   search reads, over a seeded corpus of sampled candidate states of
   every generator op kind — plain, im2col, parallel, tiled, swapped,
   vectorized and unrolled nests. A rewrite of the model's internals
   must leave this digest unchanged; a deliberate pricing change must
   update it. *)
let bit_pin_kinds =
  [ "matmul"; "conv2d"; "maxpool"; "add"; "relu"; "batch_matmul";
    "conv2d_nchw"; "dwconv"; "avgpool"; "mul"; "sub"; "div"; "exp"; "log";
    "bias_add" ]

let bit_pin_states () =
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 80 }
  in
  let rng = Util.Rng.create 20240917 in
  List.concat_map
    (fun kind ->
      let op = Generator.random_op rng kind in
      List.concat_map
        (fun sched ->
          let open_sched =
            List.filter (fun tr -> tr <> Schedule.Vectorize) sched
          in
          List.filter_map
            (fun s -> Result.to_option (Sched_state.apply_all op s))
            [ sched; open_sched;
              open_sched @ [ Schedule.Unroll 2 ];
              open_sched @ [ Schedule.Unroll 4; Schedule.Vectorize ] ])
        (Auto_scheduler.gather_candidates config op))
    bit_pin_kinds

let test_cost_model_bit_pin () =
  let b = Buffer.create (1 lsl 16) in
  let bits x = Printf.bprintf b "%Lx;" (Int64.bits_of_float x) in
  let states = bit_pin_states () in
  List.iter
    (fun (st : Sched_state.t) ->
      let r =
        Cost_model.estimate ~machine
          ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
          ~packing_elements:st.Sched_state.packing_elements st.Sched_state.nest
      in
      bits r.Cost_model.seconds;
      List.iter
        (fun (t : Cost_model.level_traffic) ->
          bits t.Cost_model.miss_lines;
          bits t.Cost_model.cycles)
        r.Cost_model.traffic;
      bits r.Cost_model.compute_cycles;
      Buffer.add_char b '\n')
    states;
  let has f = List.exists f states in
  let unrolled (st : Sched_state.t) =
    List.exists
      (function Schedule.Unroll _ -> true | _ -> false)
      st.Sched_state.applied
  in
  Alcotest.(check bool)
    "corpus covers im2col, parallel, vectorized and unrolled states" true
    (has (fun st -> st.Sched_state.packing_elements > 0)
    && has (fun st -> st.Sched_state.parallelized)
    && has (fun st -> st.Sched_state.vectorized)
    && has unrolled);
  Alcotest.(check string) "estimate bits digest"
    "4194:7aa001734d861d7f975bbf7bbaa02a0d"
    (Printf.sprintf "%d:%s" (List.length states)
       (Digest.to_hex (Digest.string (Buffer.contents b))))

let suite =
  [
    Alcotest.test_case "positive time" `Quick test_positive_time;
    Alcotest.test_case "vectorize helps" `Quick test_vectorize_helps;
    Alcotest.test_case "parallel helps" `Quick test_parallel_helps;
    Alcotest.test_case "parallel capped by cores" `Quick test_parallel_capped_by_cores;
    Alcotest.test_case "tiling reduces L2 traffic" `Quick test_tiling_reduces_l2_traffic;
    Alcotest.test_case "interchange changes time" `Quick test_interchange_changes_time;
    Alcotest.test_case "vector efficiency contiguity" `Quick
      test_vector_efficiency_contiguous;
    Alcotest.test_case "launch overhead counted" `Quick test_launch_overhead_counted;
    Alcotest.test_case "packing cost charged" `Quick test_packing_cost_charged;
    Alcotest.test_case "monotone in size" `Quick test_more_iterations_cost_more;
    Alcotest.test_case "evaluator identity speedup" `Quick
      test_evaluator_speedup_one_for_identity;
    Alcotest.test_case "evaluator base cached" `Quick test_evaluator_base_cached;
    Alcotest.test_case "evaluator counts measurements" `Quick
      test_evaluator_counts_measurements;
    Alcotest.test_case "evaluator schedule error" `Quick test_evaluator_schedule_error;
    Alcotest.test_case "timeout floor" `Quick test_timeout_floor;
    Alcotest.test_case "cache sim hit after miss" `Quick test_cache_sim_hit_after_miss;
    Alcotest.test_case "cache sim capacity eviction" `Quick
      test_cache_sim_capacity_eviction;
    Alcotest.test_case "cache sim small footprint" `Quick
      test_cache_sim_small_footprint_reuse;
    Alcotest.test_case "cache sim tiling direction" `Quick
      test_cache_sim_validates_tiling_direction;
    Alcotest.test_case "cost model bit pin" `Quick test_cost_model_bit_pin;
    QCheck_alcotest.to_alcotest qcheck_speedup_positive;
  ]
