(* The benchmark executable. One run sets a workload up from its seed, then
   autoschedules, trains and serves, and prints one JSON result line.

     perfbench.exe --workload table2|deep --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 measures the phases untraced, again traced, replays the
   monolithic calls through the layers' public functions, writes every
   span to perfbench/out/ and reports the per-layer metrics plus the
   tracing overhead. See README.md for the metric definitions. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload table2|deep --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref 50.0 in
  let trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := List.assoc_opt w Inputs.workloads;
        if !workload = None then usage ();
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:0.0 (float_of_string_opt s);
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some w, Some s when !seconds > 0.0 -> (w, s, !seconds, !trace)
  | _ -> usage ()

let elapsed_s t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9

(* -- set-up ------------------------------------------------------------- *)

type setup = {
  inputs : Inputs.t;
  model : Surrogate.Model.t;
  reference : Phase_serve.reference;
}

let surrogate_budget = 200

(* Everything a phase needs before its clock starts: the inputs, the
   surrogate (evaluation logs of a disjoint op draw, then a fit) and the
   serve reference answers. *)
let set_up workload ~seed =
  let inputs = Inputs.make workload ~seed in
  let log = Surrogate.Dataset_log.create () in
  let ev = Evaluator.create () in
  Surrogate.Dataset_log.attach log ev;
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = surrogate_budget }
  in
  Array.iter
    (fun op -> ignore (Auto_scheduler.search ~config ev op))
    inputs.Inputs.surrogate_ops;
  Surrogate.Dataset_log.detach ev;
  let model = Surrogate.Model.create ~seed:0 () in
  ignore (Surrogate.Model.fit ~epochs:20 model (Surrogate.Dataset_log.entries log));
  { inputs; model; reference = Phase_serve.reference_answers inputs.Inputs.spec_pool }

let timed_setup workload ~seed =
  let t0 = Span.now_ns () in
  let s = set_up workload ~seed in
  (s, elapsed_s t0)

(* -- phases ------------------------------------------------------------- *)

(* A run is [rounds] round-robin rounds of the phases, so each metric's
   samples are spread over the whole run instead of one stretch of the
   shared host's varying load. The compute figures keep the best (each
   op's fastest search wall, each training iteration's fastest wall): a
   contended host only ever slows that work down. The serve p50s take
   the median round (see [Phase_serve.end_to_end]). *)
let rounds = 4

let slice_s seconds = seconds /. 200.0
let saturation_s seconds = seconds /. 50.0

type round = {
  r_j1 : Phase_search.pass;
  r_j2 : Phase_search.pass;
  r_staged : Phase_search.staged;
  r_t1 : Phase_train.pass;
  r_t2 : Phase_train.pass;
  r_low : Phase_serve.run;
  r_high : Phase_serve.run;
  r_sat : Phase_serve.run option;
}

type passes = {
  j1 : Phase_search.pass;
  j2 : Phase_search.pass;
  staged : Phase_search.staged;
  t1 : Phase_train.pass;
  t2 : Phase_train.pass;
  low : Phase_serve.run list;
  high : Phase_serve.run list;
  sat : Phase_serve.run list;
}

(* Request streams: one per phase and round. *)
let low_stream = 10 and high_stream = 20 and sat_stream = 30

let stream s ~id ~part rate duration =
  Inputs.request_stream s.inputs ~stream:id ~part ~parts:rounds
    (int_of_float (rate *. duration))

let run_phases ~rounds ~saturate s ~seconds =
  let val_ops = s.inputs.Inputs.split.Generator.validation in
  let train_ops = s.inputs.Inputs.split.Generator.train in
  let phase name f =
    (* Start every phase from a compacted heap: no GC debt or heap
       growth carries over from the previous phase. *)
    Gc.compact ();
    let t0 = Span.now_ns () in
    let c0 = Phase_search.cpu_seconds () in
    let v = Span.with_span ~layer:"bench" name f in
    Printf.eprintf "perfbench: %s %.2f s (cpu %.2f s)\n%!" name (elapsed_s t0)
      (Phase_search.cpu_seconds () -. c0);
    v
  in
  let open_loop id ~part rate =
    let r =
      Phase_serve.drive s.reference ~pace:(Phase_serve.Open rate)
        (stream s ~id ~part rate (Phase_serve.warmup_s +. slice_s seconds))
    in
    Printf.eprintf "perfbench: %.0f/s p50 %.3f ms p99 %.3f ms\n%!" rate
      (Phase_serve.p50 r) (Phase_serve.p99 r);
    r
  in
  let round r =
    let r_j1 = phase "search.j1" (fun () -> Phase_search.one_pass ~jobs:1 val_ops) in
    let r_j2 =
      (* The pool is made before the clock starts and joined after: idle
         pool domains would still join every stop-the-world collection of
         the phases that follow. *)
      let pool = Util.Domain_pool.create_stealing ~size:2 in
      let p =
        phase "search.j2" (fun () -> Phase_search.one_pass ~pool ~jobs:2 val_ops)
      in
      Util.Domain_pool.shutdown pool;
      p
    in
    let r_staged =
      phase "search.staged" (fun () -> Phase_search.staged_pass s.model val_ops)
    in
    let r_t1 = phase "train.j1" (fun () -> Phase_train.train_pass ~jobs:1 train_ops) in
    let r_t2 = phase "train.j2" (fun () -> Phase_train.train_pass ~jobs:2 train_ops) in
    let r_low =
      phase "serve.low" (fun () ->
          open_loop (low_stream + r) ~part:r Phase_serve.low_rps)
    in
    let r_high =
      phase "serve.high" (fun () ->
          open_loop (high_stream + r) ~part:r Phase_serve.high_rps)
    in
    let r_sat =
      if saturate then
        Some
          (phase "serve.saturation" (fun () ->
               Phase_serve.saturation s.reference ~duration_s:(saturation_s seconds)
                 (Inputs.request_stream s.inputs ~stream:(sat_stream + r) ~part:r
                    ~parts:rounds 200_000)))
      else None
    in
    { r_j1; r_j2; r_staged; r_t1; r_t2; r_low; r_high; r_sat }
  in
  let rs = List.init rounds round in
  {
    j1 = Phase_search.merge_exact ~jobs:1 val_ops (List.map (fun r -> r.r_j1) rs);
    j2 = Phase_search.merge_exact ~jobs:2 val_ops (List.map (fun r -> r.r_j2) rs);
    staged = Phase_search.merge_staged val_ops (List.map (fun r -> r.r_staged) rs);
    t1 = Phase_train.fastest_run ~jobs:1 (List.map (fun r -> r.r_t1) rs);
    t2 = Phase_train.fastest_run ~jobs:2 (List.map (fun r -> r.r_t2) rs);
    low = List.map (fun r -> r.r_low) rs;
    high = List.map (fun r -> r.r_high) rs;
    sat = List.filter_map (fun r -> r.r_sat) rs;
  }

let check_passes s p =
  Phase_search.check s.inputs.Inputs.split.Generator.validation ~j1:p.j1 ~j2:p.j2
    ~staged:p.staged;
  Report.check "train: jobs 2 iteration stats differ from jobs 1"
    (p.t1.Phase_train.digest = p.t2.Phase_train.digest);
  List.iter (Phase_serve.count_failures "serve low") p.low;
  List.iter (Phase_serve.count_failures "serve high") p.high;
  List.iter (Phase_serve.count_failures "serve saturation") p.sat

(* Input properties of the run, printed on the info line. *)
let notes s p ~workload_name ~seed =
  let val_ops = s.inputs.Inputs.split.Generator.validation in
  let exhaustive = Phase_search.exhaustive_count val_ops in
  let first_high =
    Inputs.request_stream s.inputs ~stream:high_stream
      (List.hd p.high).Phase_serve.requests
  in
  let distinct, repeat = Phase_serve.stream_shape first_high in
  let str = Printf.sprintf "%S" and num = Report.json_number in
  Report.note "workload" (str workload_name);
  Report.note "seed" (string_of_int seed);
  Report.note "nproc" (string_of_int (Domain.recommended_domain_count ()));
  Report.note "ocaml" (str Sys.ocaml_version);
  Report.note "search.ops_exhaustive" (string_of_int exhaustive);
  Report.note "search.ops_sampled" (string_of_int (Array.length val_ops - exhaustive));
  Report.note "train.episodes" (string_of_int p.t1.Phase_train.episodes);
  Report.note "serve.high.distinct_digests" (string_of_int distinct);
  Report.note "serve.high.repeat_share" (num repeat);
  Report.note "serve.generator_late_ms.max"
    (num
       (List.fold_left
          (fun m r -> Float.max m r.Phase_serve.late_max_ms)
          0.0 (p.low @ p.high)));
  (distinct, repeat)

(* -- modes -------------------------------------------------------------- *)

(* [setup_s] is the median wall of [setup_repeats] set-ups; the run uses
   the last. *)
let setup_repeats = 3

let untraced workload ~workload_name ~seed ~seconds =
  let setup_walls =
    List.init (setup_repeats - 1) (fun _ -> snd (timed_setup workload ~seed))
  in
  let s, last = timed_setup workload ~seed in
  let setup_walls = last :: setup_walls in
  let p = run_phases ~rounds ~saturate:false s ~seconds in
  check_passes s p;
  ignore (notes s p ~workload_name ~seed);
  Phase_search.end_to_end ~j1:p.j1 ~j2:p.j2 ~staged:p.staged;
  Phase_train.end_to_end ~j1:p.t1 ~j2:p.t2;
  Phase_serve.end_to_end ~low:p.low ~high:p.high;
  Report.add "setup_s" "s" (Util.Stats.median setup_walls)

let layers =
  [ "autosched"; "transform"; "perf"; "surrogate"; "core"; "rl"; "serve"; "bench" ]

let traced workload ~workload_name ~seed ~seconds =
  let s, _ = timed_setup workload ~seed in
  let base = run_phases ~rounds:1 ~saturate:true s ~seconds in
  Span.enabled := true;
  let p = run_phases ~rounds:1 ~saturate:false s ~seconds in
  let val_ops = s.inputs.Inputs.split.Generator.validation in
  let rejected =
    Span.with_span ~layer:"bench" "replay.search" (fun () ->
        Phase_search.replay val_ops)
  in
  let trajectory =
    Span.with_span ~layer:"bench" "replay.train" (fun () ->
        Phase_train.replay s.inputs.Inputs.split.Generator.train)
  in
  let high = List.hd p.high in
  Span.with_span ~layer:"bench" "replay.serve" (fun () ->
      Phase_serve.replay
        ~batch:(max 1 (int_of_float (Float.round high.Phase_serve.batch_mean)))
        (Inputs.request_stream s.inputs ~stream:high_stream
           high.Phase_serve.requests));
  Span.enabled := false;
  check_passes s base;
  check_passes s p;
  Phase_train.check_replay p.t1 trajectory;
  let distinct, repeat = notes s p ~workload_name ~seed in
  Phase_search.per_layer val_ops ~j1:p.j1 ~j2:p.j2 ~staged:p.staged ~rejected;
  Phase_train.per_layer ~train_wall_s:p.t1.Phase_train.wall_s
    ~val_speedups:(Phase_train.greedy_speedups p.t1 val_ops);
  Phase_serve.per_layer ~low:p.low ~high:p.high ~untraced_low:base.low ~untraced_high:base.high
    ~untraced_sat:base.sat;
  let j2_cpu = p.j2.Phase_search.cpu_s +. p.t2.Phase_train.cpu_s in
  let j2_wall = p.j2.Phase_search.wall_s +. p.t2.Phase_train.wall_s in
  Report.add "util.j2.cpu_util" "ratio" (j2_cpu /. (2.0 *. j2_wall));
  Report.add "util.j2.cpu_util.search" "ratio"
    (p.j2.Phase_search.cpu_s /. (2.0 *. p.j2.Phase_search.wall_s));
  Report.add "util.j2.cpu_util.train" "ratio"
    (p.t2.Phase_train.cpu_s /. (2.0 *. p.t2.Phase_train.wall_s));
  let self = Span.self_ns_by_layer () in
  List.iter
    (fun layer ->
      Report.add ("self_ms." ^ layer) "ms"
        (Option.value ~default:0.0 (Hashtbl.find_opt self layer) /. 1e6))
    layers;
  Report.add "trace.overhead.search_ms" "ms"
    ((p.j1.Phase_search.wall_s -. base.j1.Phase_search.wall_s) *. 1e3);
  Report.add "trace.overhead.train_ms" "ms"
    ((p.t1.Phase_train.wall_s -. base.t1.Phase_train.wall_s) *. 1e3);
  Report.add "trace.overhead.serve_p50_ms" "ms"
    (Phase_serve.p50 (List.hd p.high) -. Phase_serve.p50 (List.hd base.high));
  Report.add "input.serve.distinct_digests" "count" (float_of_int distinct);
  Report.add "input.serve.repeat_share" "ratio" repeat;
  Report.add "input.train.episodes" "count" (float_of_int p.t1.Phase_train.episodes);
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" workload_name seed)
  in
  Span.write path;
  Report.note "spans" (Printf.sprintf "%S" path)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let workload_name =
    fst (List.find (fun (_, w) -> w = workload) Inputs.workloads)
  in
  (if trace then traced else untraced) workload ~workload_name ~seed ~seconds;
  Report.print_info ();
  Report.print_result ()
