(* Serving phase: an open loop from one generator (the main thread)
   against an in-process [Serve.Server] with one worker, at fixed rates.
   Latency runs from each request's due time, so generator lateness and
   queueing both count. Every [ok] reply is checked against a reference
   answer a separate engine computed in set-up. *)

let now_s () = Int64.to_float (Span.now_ns ()) /. 1e9

(* Offered rates (requests/s) of the two open-loop phases: well below
   saturation on a two-core host. *)
let low_rps = 1500.0
let high_rps = 6000.0

(* [serve.max_rps] comes from a closed loop that keeps this many requests
   in flight — the default admission bound, so the backlog can never
   grow past what the default server would admit. *)
let max_in_flight = Serve.Batcher.default_config.Serve.Batcher.max_queue
let p99_limit_ms = 50.0

(* The default batcher, but with room for a host stall's worth of
   arrivals ([serve --max-queue 4096]): a stall of the shared machine
   then shows up as latency instead of as shed requests. *)
let server_config =
  {
    Serve.Server.default_config with
    Serve.Server.batcher =
      { Serve.Batcher.default_config with Serve.Batcher.max_queue = 4096 };
  }

type reference = (string, string * float) Hashtbl.t

let parse spec =
  match Op_spec.parse spec with
  | Ok op -> op
  | Error e -> failwith (Printf.sprintf "spec %S does not parse: %s" spec e)

(* Reference answers for every spec in the pool, from a separate engine
   with the served configuration. *)
let reference_answers (pool : string array) : reference =
  let engine = Result.get_ok (Serve.Engine.create Serve.Engine.default_config) in
  let specs = Array.of_list (List.sort_uniq compare (Array.to_list pool)) in
  let answers = Serve.Engine.solve_batch engine (Array.map parse specs) in
  Serve.Engine.shutdown engine;
  let tbl = Hashtbl.create (Array.length specs) in
  Array.iteri
    (fun i spec ->
      match answers.(i) with
      | Ok o ->
          Hashtbl.replace tbl spec (o.Serve.Engine.schedule, o.Serve.Engine.speedup)
      | Error (_, msg) -> failwith (Printf.sprintf "reference %s: %s" spec msg))
    specs;
  tbl

(* The first op of each distinct nest digest, in order. *)
let distinct_nests ops =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun op ->
      let d = Serve.Engine.nest_digest op in
      (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true))
    (Array.to_list ops)

(* Distinct nest digests and the share of requests repeating an earlier
   request's digest — the cache-friendliness of a stream. *)
let stream_shape specs =
  let n = Array.length specs in
  let distinct = List.length (distinct_nests (Array.map parse specs)) in
  (distinct, float_of_int (n - distinct) /. float_of_int (max 1 n))

type run = {
  requests : int;  (** submitted, warm-up included *)
  lat_ms : float list;  (** measured requests only *)
  failed : string list;  (** errors and reference mismatches *)
  late_max_ms : float;
  queue_wait_ms : float * float;  (** p50, p99 bucket bounds *)
  batch_mean : float;
  shed : int;
  expired : int;
  cache_hit_ratio : float;
  throughput : float;
      (** replies/s of the measured requests, from the end of the warm-up
          to the last reply *)
}

(* Open loop: request [i] is due at [i / rate]. Closed loop: submit
   whenever fewer than [in_flight] replies are outstanding, until
   [duration_s] has passed; a request is due when it is submitted.
   Requests due in the first [warmup_s] fill the fresh engine's result
   cache; they are checked like every other request but left out of the
   latency and throughput figures, which describe the steady state. *)
type pace = Open of float | Closed of { in_flight : int; duration_s : float }

let drain_timeout_s = 30.0

let warmup_s = 0.25

let drive (reference : reference) ~pace specs =
  let engine = Result.get_ok (Serve.Engine.create Serve.Engine.default_config) in
  let server = Serve.Server.create ~config:server_config engine in
  let cap = Array.length specs in
  let due = Array.make cap 0.0 and answered = Array.make cap 0.0 in
  let verdict = Array.make cap None in
  let completed = Atomic.make 0 in
  let late_max = ref 0.0 in
  let t0 = now_s () +. 0.005 in
  let submit i =
    let spec = specs.(i) in
    Span.with_span ~layer:"serve" "Server.submit" (fun () ->
        Serve.Server.submit server
          (Serve.Protocol.Optimize
             { id = string_of_int i; target = Serve.Protocol.Spec spec; deadline_ms = None })
          (fun resp ->
            answered.(i) <- now_s ();
            verdict.(i) <-
              (match resp with
              | Serve.Protocol.Ok_reply r ->
                  if Hashtbl.find_opt reference spec
                     = Some (r.Serve.Protocol.schedule, r.Serve.Protocol.speedup)
                  then None
                  else Some (Printf.sprintf "%s: reply differs from reference" spec)
              | Serve.Protocol.Error_reply { code; message; _ } ->
                  Some
                    (Printf.sprintf "%s: %s %s" spec
                       (Serve.Protocol.error_code_to_string code) message)
              | _ -> Some (spec ^ ": unexpected reply"));
            Atomic.incr completed))
  in
  let rec loop i =
    if i < cap then
      match pace with
      | Open rate ->
          let due_i = t0 +. (float_of_int i /. rate) in
          let wait = due_i -. now_s () in
          if wait > 0.0 then Unix.sleepf wait;
          late_max := Float.max !late_max (now_s () -. due_i);
          due.(i) <- due_i;
          submit i;
          loop (i + 1)
      | Closed { in_flight; duration_s } ->
          let now = now_s () in
          if now < t0 +. warmup_s +. duration_s then
            if i - Atomic.get completed >= in_flight then begin
              Unix.sleepf 1e-4;
              loop i
            end
            else begin
              due.(i) <- now;
              submit i;
              loop (i + 1)
            end
          else i
    else i
  in
  while now_s () < t0 do
    ()
  done;
  let n = loop 0 in
  let give_up = now_s () +. drain_timeout_s in
  while Atomic.get completed < n && now_s () < give_up do
    Unix.sleepf 0.001
  done;
  let all_in = Atomic.get completed = n in
  let measured = List.filter (fun i -> due.(i) >= t0 +. warmup_s) (List.init n Fun.id) in
  let lat =
    List.map
      (fun i ->
        if answered.(i) > 0.0 then (answered.(i) -. due.(i)) *. 1e3
        else drain_timeout_s *. 1e3)
      measured
  in
  let m = Serve.Server.metrics server in
  let q p =
    Option.fold ~none:0.0 ~some:(fun s -> s *. 1e3)
      (Serve.Metrics.quantile m "serve_queue_wait_seconds" p)
  in
  let result =
    {
      requests = n;
      lat_ms = lat;
      failed =
        (if all_in then [] else [ "requests unanswered after drain timeout" ])
        @ List.filter_map Fun.id (Array.to_list (Array.sub verdict 0 n));
      late_max_ms = !late_max *. 1e3;
      queue_wait_ms = (q 0.5, q 0.99);
      batch_mean =
        Serve.Metrics.hist_sum m "serve_batch_size"
        /. float_of_int (max 1 (Serve.Metrics.hist_count m "serve_batch_size"));
      shed = Serve.Metrics.counter m "serve_shed_total";
      expired = Serve.Metrics.counter m "serve_expired_total";
      cache_hit_ratio =
        Report.ratio (Serve.Engine.cache_hits engine) (Serve.Engine.cache_misses engine);
      throughput =
        float_of_int (List.length measured)
        /. (List.fold_left (fun m i -> Float.max m answered.(i)) t0 measured
           -. (t0 +. warmup_s));
    }
  in
  if all_in then begin
    Serve.Server.drain server;
    Serve.Engine.shutdown engine
  end;
  result

let p50 r = Util.Stats.percentile 50.0 r.lat_ms
let p99 r = Util.Stats.percentile 99.0 r.lat_ms

(* Across the rounds of a run: the median of the per-round figures. *)
let across f runs = Util.Stats.median (List.map f runs)

let count_failures what r =
  List.iter (fun f -> Report.check (what ^ ": " ^ f) false) r.failed;
  for _ = 1 to r.requests - List.length r.failed do
    Report.check what true
  done

(* The highest rate the server sustains with its backlog bounded by the
   admission limit; its p99 must meet [p99_limit_ms]. *)
let saturation reference ~duration_s specs =
  let r =
    drive reference ~pace:(Closed { in_flight = max_in_flight; duration_s }) specs
  in
  Report.check
    (Printf.sprintf "serve saturation: p99 %.1f ms over the %.0f ms limit" (p99 r)
       p99_limit_ms)
    (p99 r <= p99_limit_ms);
  r

(* The median round, not the best: at the low rate most rounds read about
   1.43 ms and a few read lower, down to 0.96 ms on a 2-vCPU VM, so the
   best of the rounds would follow those few. *)
let end_to_end ~low ~high =
  Report.add "serve.lat_ms.p50.low" "ms" (across p50 low);
  Report.add "serve.lat_ms.p50.high" "ms" (across p50 high)

(* Replay of the high-rate stream through the engine's and the policy's
   public functions: [Engine.solve_batch] on batches of the size the
   server formed, and the greedy lockstep decode of the stream's
   distinct ops with [Policy.act_greedy_batch]. *)
let replay ~batch specs =
  let engine = Result.get_ok (Serve.Engine.create Serve.Engine.default_config) in
  let ops = Array.map parse specs in
  let n = Array.length ops in
  let rec go lo =
    if lo < n then begin
      let len = min batch (n - lo) in
      ignore
        (Span.with_span ~calls:len ~layer:"serve" "Engine.solve_batch" (fun () ->
             Serve.Engine.solve_batch engine (Array.sub ops lo len)));
      go (lo + len)
    end
  in
  go 0;
  Serve.Engine.shutdown engine;
  let cfg = Env_config.default in
  let policy =
    Policy.create ~hidden:Serve.Engine.default_config.Serve.Engine.hidden
      ~backbone_layers:2 (Util.Rng.create 0x51) cfg
  in
  let distinct = Array.of_list (distinct_nests ops) in
  let slab = Serve.Batcher.default_config.Serve.Batcher.max_batch in
  let rec decode lo =
    if lo < Array.length distinct then begin
      let chunk = Array.sub distinct lo (min slab (Array.length distinct - lo)) in
      let envs = Array.map (fun _ -> Env.create cfg) chunk in
      let obs = Array.mapi (fun i op -> Env.reset envs.(i) op) chunk in
      let active = Array.make (Array.length chunk) true in
      while Array.exists Fun.id active do
        let live =
          List.filter (fun i -> active.(i)) (List.init (Array.length chunk) Fun.id)
          |> Array.of_list
        in
        let acts =
          Span.with_span ~calls:(Array.length live) ~layer:"core"
            "Policy.act_greedy_batch" (fun () ->
              Policy.act_greedy_batch policy
                ~obs:(Array.map (fun i -> obs.(i)) live)
                ~masks:(Array.map (fun i -> Env.masks envs.(i)) live))
        in
        Array.iteri
          (fun k a ->
            let i = live.(k) in
            let r = Env.step_hierarchical envs.(i) a in
            obs.(i) <- r.Env.obs;
            if r.Env.terminal then active.(i) <- false)
          acts
      done;
      decode (lo + slab)
    end
  in
  decode 0

(* The p99s and the closed-loop rate are per-layer figures, not gated
   end-to-end ones: on a shared two-core host they swing by 2-3x with
   the host's load, far beyond any usable regression bound. [untraced_*]
   are the same phases measured with tracing off. *)
let per_layer ~low ~high ~untraced_low ~untraced_high ~untraced_sat =
  Report.add "serve.lat_ms.p99.low" "ms" (across p99 untraced_low);
  Report.add "serve.lat_ms.p99.high" "ms" (across p99 untraced_high);
  Report.add "serve.max_rps" "1/s" (across (fun r -> r.throughput) untraced_sat);
  Report.add "serve.queue_wait_ms.p50" "ms" (across (fun r -> fst r.queue_wait_ms) high);
  Report.add "serve.queue_wait_ms.p99" "ms" (across (fun r -> snd r.queue_wait_ms) high);
  Report.add "serve.batch_size.mean" "count" (across (fun r -> r.batch_mean) high);
  Report.add "serve.solve_batch.ms" "ms" (Span.per_span ~unit_ns:1e6 "Engine.solve_batch");
  Report.add "serve.result_cache.hit_ratio" "ratio"
    (across (fun r -> r.cache_hit_ratio) high);
  let sum f = float_of_int (List.fold_left (fun n r -> n + f r) 0 (low @ high)) in
  Report.add "serve.shed" "count" (sum (fun r -> r.shed));
  Report.add "serve.expired" "count" (sum (fun r -> r.expired));
  Report.add "serve.generator_late_ms.max" "ms"
    (List.fold_left (fun m r -> Float.max m r.late_max_ms) 0.0 (low @ high));
  Report.add "policy.act_greedy_batch.us_per_row" "us"
    (Span.per_call ~unit_ns:1e3 "Policy.act_greedy_batch")
