type cache_stats = {
  base : Util.Sharded_cache.stats;
  state : Util.Sharded_cache.stats option;
  surrogate : Util.Sharded_cache.stats option;
}

type measure_hook = Sched_state.t -> seconds:float -> unit

type counters = {
  explored : int;
  measurements : int;
  retries : int;
  degraded : int;
}

type quality = Exact | Degraded of string

type measurement = {
  seconds : float;
  timed_out : bool;
  quality : quality;
  retries : int;
  charged : float;
}

type t = {
  machine : Machine.t;
  base_cache : (string, float) Util.Sharded_cache.t;
  state_cache : (string, float) Util.Sharded_cache.t option;
  (* The counter record, kept as mutable ints so the per-candidate
     [state_seconds] path bumps a field instead of allocating; read
     back as one {!counters} value. *)
  mutable n_explored : int;
  mutable n_measurements : int;
  mutable n_retries : int;
  mutable n_degraded : int;
  noise : float;
  noise_rng : Util.Rng.t;
  (* The unreliable world a real measurement runs in. [None]: one
     backend run per measurement. [Some]: the paper's
     repeat/retry/degrade discipline of {!measure}. *)
  faults : Faults.t option;
  (* Emulated hardware-measurement stall per state-seconds COMPUTATION
     (transposition-cache misses only — a cached measurement needs no
     re-measurement). The analytic cost model answers in microseconds,
     which no real deployment does; benches of parallel search scaling
     would otherwise measure this host's core count instead of how well
     the search overlaps measurement latency. Bit-invisible to every
     result: only wall-clock changes. 0 (off) by default. *)
  measure_delay_s : float;
  (* Physical-identity memo for [base_seconds]: a search evaluates
     thousands of candidates of the SAME original op, so the common case
     is the exact same [Linalg.t] value — skip even the digest+lookup.
     Per-fork (not shared), purely a wall-clock optimization. *)
  mutable base_memo : (Linalg.t * float) option;
  (* "|" ^ machine name, precomputed once for state_key. *)
  machine_suffix : string;
  (* Measurement tap: called once per state-seconds COMPUTATION with the
     pure, pre-jitter cost-model value — the surrogate's dataset logger
     installs itself here. With the transposition cache on, that is once
     per distinct (digest, kinds, packing, machine) key, so the log
     dedups for free; the hook never sees jitter and never perturbs the
     noise stream, so enabling it is bit-invisible to every consumer. *)
  mutable measure_hook : measure_hook option;
  (* A surrogate ranker's prediction-cache stats closure, attached so
     its counters surface through the one {!cache_stats} record (CLI
     stderr stats, serve /stats, Prometheus) instead of growing another
     ad-hoc stats path. A closure rather than the cache itself keeps
     the ranker's key type out of this interface. *)
  mutable surrogate_cache : (unit -> Util.Sharded_cache.stats) option;
}

let timeout_factor = 10.0
let default_cache_capacity = 4096
let default_state_cache_capacity = 65536

let create ?(machine = Machine.e5_2680_v4) ?(noise = 0.0) ?(noise_seed = 0)
    ?(cache_capacity = default_cache_capacity)
    ?(state_cache_capacity = default_state_cache_capacity)
    ?(measure_delay_s = 0.0) ?faults () =
  {
    machine;
    base_cache = Util.Sharded_cache.create ~capacity:cache_capacity ();
    state_cache =
      (if state_cache_capacity <= 0 then None
       else Some (Util.Sharded_cache.create ~capacity:state_cache_capacity ()));
    n_explored = 0;
    n_measurements = 0;
    n_retries = 0;
    n_degraded = 0;
    noise;
    noise_rng = Util.Rng.create noise_seed;
    faults;
    measure_delay_s;
    base_memo = None;
    machine_suffix = "|" ^ machine.Machine.name;
    measure_hook = None;
    surrogate_cache = None;
  }

let fork t =
  (* Same machine and noise sigma, and the same (shared, domain-safe)
     caches — base times and pre-jitter state times are pure, so every
     fork may reuse them. The counters, jitter stream and fault stream
     are per-fork: each parallel episode runs its own decorrelated
     streams and reports its counters for the caller to merge. *)
  {
    machine = t.machine;
    base_cache = t.base_cache;
    state_cache = t.state_cache;
    n_explored = 0;
    n_measurements = 0;
    n_retries = 0;
    n_degraded = 0;
    noise = t.noise;
    noise_rng = Util.Rng.create 0;
    faults = Option.map Faults.fork t.faults;
    measure_delay_s = t.measure_delay_s;
    base_memo = None;
    machine_suffix = t.machine_suffix;
    (* Forks inherit the measurement tap (the dataset logger is
       mutex-protected) and the attached surrogate cache, like the
       other shared caches. *)
    measure_hook = t.measure_hook;
    surrogate_cache = t.surrogate_cache;
  }

let jitter t seconds =
  if t.noise <= 0.0 then seconds
  else seconds *. exp (t.noise *. Util.Rng.gaussian t.noise_rng)

let machine t = t.machine
let noise t = t.noise
let faults t = t.faults

let base_seconds t (op : Linalg.t) =
  match t.base_memo with
  | Some (memo_op, s) when memo_op == op -> s
  | _ ->
      (* Keyed by the canonical digest, not op_name: two ops sharing a
         name but differing in shape must not reuse each other's
         baseline. *)
      let key = Linalg.digest op in
      let s =
        Util.Sharded_cache.find_or_compute t.base_cache key (fun () ->
            let nest = Lower.to_loop_nest op in
            Cost_model.seconds ~machine:t.machine
              ~iter_kinds:op.Linalg.iter_kinds nest)
      in
      t.base_memo <- Some (op, s);
      s

(* The transposition cache memoizes the PURE part of a measurement —
   the cost-model seconds of (nest, iter kinds, packing, machine).
   Jitter is applied after the lookup and [n_explored] counts every
   logical call, so measurement noise streams, speedup values and
   paper-figure traces are byte-identical whether a call hits or
   misses; only wall-clock changes. The key leads with the O(1)
   structural digest maintained by {!Sched_state.apply}; iter kinds
   ride along because the cost model reads them through loop origins,
   which the nest digest records only as indices. *)
let state_key t (state : Sched_state.t) =
  let ik = state.Sched_state.op.Linalg.iter_kinds in
  let kinds =
    String.init (Array.length ik) (fun i ->
        match ik.(i) with
        | Linalg.Parallel_iter -> 'p'
        | Linalg.Reduction_iter -> 'r')
  in
  (* One-pass concat (no sprintf formatting machinery): this runs once
     per candidate on the search hot path. *)
  String.concat ""
    [
      Sched_state.digest state; "|"; kinds; "|";
      string_of_int state.Sched_state.packing_elements; t.machine_suffix;
    ]

let pure_state_seconds t (state : Sched_state.t) =
  let compute () =
    (* The sleep blocks only this domain's OS thread, so concurrent
       misses on distinct keys stall concurrently — which is exactly
       the overlap a parallel search buys on measurement-bound
       deployments. [find_or_compute] runs us outside the shard lock. *)
    if t.measure_delay_s > 0.0 then Unix.sleepf t.measure_delay_s;
    let s =
      Cost_model.seconds ~machine:t.machine
        ~iter_kinds:state.Sched_state.op.Linalg.iter_kinds
        ~packing_elements:state.Sched_state.packing_elements
        state.Sched_state.nest
    in
    (match t.measure_hook with None -> () | Some hook -> hook state ~seconds:s);
    s
  in
  match t.state_cache with
  | None -> compute ()
  | Some cache ->
      Util.Sharded_cache.find_or_compute cache (state_key t state) compute

let set_measure_hook t hook = t.measure_hook <- hook
let attach_surrogate_cache t stats = t.surrogate_cache <- Some stats

let state_seconds t (state : Sched_state.t) =
  t.n_explored <- t.n_explored + 1;
  (* Differential sanitizer (MLIR_RL_SANITIZE): every measurement path —
     train, autosched, serve — funnels through here, so this one hook
     covers them all. The digest-pair dedup inside sanitize_state keeps
     it to one interpretation per distinct transformed nest per process;
     when disabled the cost is a single atomic load. *)
  if Sanitizer.enabled () then ignore (Differential.sanitize_state state);
  jitter t (pure_state_seconds t state)

(* The paper's measurement discipline, applied when a fault injector
   is attached: repeat until stable, retry failures with exponential
   backoff charged to the simulated clock, and degrade to the
   cost-model estimate when retries run out. *)
let min_repeats = 3
let max_repeats = 9
let stability_rsd = 0.05
let max_retries = 4
let backoff_base = 1.0
let backoff_factor = 2.0
let hang_cap = 60.0

(* The degradation fallback: the noiseless analytical estimate, exactly
   what a fault-free measurement reports with jitter disabled. *)
let estimate_seconds t (state : Sched_state.t) =
  Cost_model.seconds ~machine:t.machine
    ~iter_kinds:state.Sched_state.op.Linalg.iter_kinds
    ~packing_elements:state.Sched_state.packing_elements
    state.Sched_state.nest

let capped ~cap ~quality ~retries ~charged s =
  let timed_out = s > cap in
  { seconds = (if timed_out then cap else s); timed_out; quality; retries;
    charged }

let measure_faulty t faults state ~cap =
  let samples = ref [] in
  let n_samples = ref 0 in
  let retries = ref 0 in
  let charged = ref 0.0 in
  let exhausted = ref false in
  let last_failure = ref "" in
  let stable () =
    !n_samples >= min_repeats
    &&
    let m = Util.Stats.mean !samples in
    m > 0.0 && Util.Stats.stddev !samples /. m <= stability_rsd
  in
  let fail f =
    last_failure := Faults.to_string f;
    if !retries >= max_retries then exhausted := true
    else begin
      incr retries;
      t.n_retries <- t.n_retries + 1;
      charged :=
        !charged +. (backoff_base *. (backoff_factor ** float_of_int (!retries - 1)))
    end
  in
  while (not (stable ())) && !n_samples < max_repeats && not !exhausted do
    match Faults.draw faults with
    | (None | Some (Faults.Latency_outlier _)) as fault ->
        let s = state_seconds t state in
        let s =
          match fault with Some (Faults.Latency_outlier k) -> s *. k | _ -> s
        in
        (* A run is killed at the adaptive cap, so never charge above it. *)
        charged := !charged +. Float.min s cap;
        samples := s :: !samples;
        incr n_samples
    | Some (Faults.Transient_timeout as f) ->
        charged := !charged +. cap;
        fail f
    | Some (Faults.Hang h as f) ->
        charged := !charged +. Float.min h hang_cap;
        fail f
    | Some ((Faults.Compile_failure | Faults.Crash) as f) -> fail f
  done;
  let degrade why =
    t.n_degraded <- t.n_degraded + 1;
    Degraded why
  in
  match !samples with
  | [] ->
      (* Retries exhausted with nothing measured: degrade gracefully to
         the pure cost-model estimate rather than aborting. *)
      let quality = degrade ("no samples: " ^ !last_failure) in
      capped ~cap ~quality ~retries:!retries ~charged:!charged
        (estimate_seconds t state)
  | xs ->
      let quality =
        if !exhausted && !n_samples < min_repeats then
          degrade
            (Printf.sprintf "only %d/%d samples: %s" !n_samples min_repeats
               !last_failure)
        else Exact
      in
      capped ~cap ~quality ~retries:!retries ~charged:!charged
        (Util.Stats.median xs)

let measure t state =
  t.n_measurements <- t.n_measurements + 1;
  let cap = timeout_factor *. base_seconds t state.Sched_state.original in
  match t.faults with
  | Some faults -> measure_faulty t faults state ~cap
  | None ->
      let s = state_seconds t state in
      let timed_out = s > cap in
      let seconds = if timed_out then cap else s in
      { seconds; timed_out; quality = Exact; retries = 0; charged = seconds }

let speedup t state =
  let base = base_seconds t state.Sched_state.original in
  base /. (measure t state).seconds

let schedule_speedup t op sched =
  Result.map (speedup t) (Sched_state.apply_all op sched)

let counters t =
  {
    explored = t.n_explored;
    measurements = t.n_measurements;
    retries = t.n_retries;
    degraded = t.n_degraded;
  }

let restore_counters t (c : counters) =
  t.n_explored <- c.explored;
  t.n_measurements <- c.measurements;
  t.n_retries <- c.retries;
  t.n_degraded <- c.degraded

let add_counters t (c : counters) =
  t.n_explored <- t.n_explored + c.explored;
  t.n_measurements <- t.n_measurements + c.measurements;
  t.n_retries <- t.n_retries + c.retries;
  t.n_degraded <- t.n_degraded + c.degraded

let noise_state t = Util.Rng.state t.noise_rng
let set_noise_state t s = Util.Rng.set_state t.noise_rng s

let cache_stats t =
  {
    base = Util.Sharded_cache.stats t.base_cache;
    state = Option.map Util.Sharded_cache.stats t.state_cache;
    surrogate = Option.map (fun stats -> stats ()) t.surrogate_cache;
  }

(* The tagged cache groups of a stats record, present-only — the single
   source both renderers (and serve's Prometheus dump) fold over. *)
let cache_stats_groups stats =
  [ ("base", Some stats.base); ("state", stats.state);
    ("surrogate", stats.surrogate) ]
  |> List.filter_map (fun (tag, s) -> Option.map (fun s -> (tag, s)) s)

let render_cache_stats stats =
  let one (tag, (s : Util.Sharded_cache.stats)) =
    let total = s.Util.Sharded_cache.hits + s.Util.Sharded_cache.misses in
    let rate =
      if total = 0 then 0.0
      else 100.0 *. float_of_int s.Util.Sharded_cache.hits /. float_of_int total
    in
    Printf.sprintf
      "%s %d/%d hits (%.1f%%, %d evictions, %d contended, %d live/%d cap)" tag
      s.Util.Sharded_cache.hits total rate s.Util.Sharded_cache.evictions
      s.Util.Sharded_cache.contention s.Util.Sharded_cache.size
      s.Util.Sharded_cache.capacity
  in
  let groups = List.map one (cache_stats_groups stats) in
  let groups =
    if stats.state = None then groups @ [ "state cache disabled" ] else groups
  in
  String.concat " | " groups

let render_cache_kv stats =
  String.concat " "
    (List.map
       (fun (tag, (s : Util.Sharded_cache.stats)) ->
         Printf.sprintf "eval_%s_hits=%d eval_%s_misses=%d eval_%s_contention=%d"
           tag s.Util.Sharded_cache.hits tag s.Util.Sharded_cache.misses tag
           s.Util.Sharded_cache.contention)
       (cache_stats_groups stats))
