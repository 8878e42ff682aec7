(* Shared plumbing of the parallel search paths (Auto_scheduler and
   Beam_search): pool lifetime and per-subtask evaluator forks.

   The determinism contract both searches follow:

   - work is decomposed into subtasks whose ENUMERATION is sequential
     and jobs-independent; only evaluation runs on the pool;
   - every subtask evaluates on its own {!Evaluator.fork} whose jitter
     stream is derived from the parent's noise state and the subtask's
     index ({!Util.Rng.derive} — pure, so the stream depends on the
     trie path, never on scheduling or worker count);
   - results merge on the caller's domain in subtask order, replaying
     the sequential bookkeeping exactly;
   - the forks' counters are added back into the parent.

   With a noiseless evaluator (every search/bench/CLI path) the forked
   streams draw nothing, so any [--jobs N] is byte-identical to
   [--jobs 1]; with noise > 0 all parallel runs are byte-identical to
   each other for any N >= 2 (the candidate-indexed streams replace the
   parent's single sequential stream). *)

(* Run [f] with the caller's pool, or a private work-stealing pool of
   [jobs] workers torn down afterwards. Stealing suits the irregular
   subtrie tasks: one frontier task may enumerate 10x the leaves of
   another, and a worker stuck on it sheds its backlog to idle ones. *)
let with_pool ?pool ~jobs f =
  if jobs < 1 then invalid_arg "Par_eval.with_pool: jobs must be >= 1";
  match pool with
  | Some p -> f p
  | None ->
      let p = Util.Domain_pool.create_stealing ~size:jobs in
      Fun.protect ~finally:(fun () -> Util.Domain_pool.shutdown p) (fun () -> f p)

let noise_base evaluator = Int64.to_int (Evaluator.noise_state evaluator)

(* A worker-local evaluator whose jitter stream is keyed by [stream]
   (the subtask's index in enumeration order) on top of [base] (the
   parent's noise state when the parallel phase began). *)
let derived_fork evaluator ~base ~stream =
  let fork = Evaluator.fork evaluator in
  Evaluator.set_noise_state fork (Util.Rng.state (Util.Rng.derive base ~stream));
  fork
