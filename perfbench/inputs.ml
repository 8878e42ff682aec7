(* Workload inputs, generated from the run's seed and nothing else.

   Every workload runs the same three user-facing phases — autoschedule
   the validation ops, train the agent on the training ops, serve
   schedule requests — and the workloads differ in the op population
   they draw:

   - [table2]: the paper's Table 2 mix (1088 training / 67 validation
     ops over matmul, conv2d, maxpool, add and relu);
   - [deep]: the same totals drawn from matmul and conv2d only, the
     deep-nest regime where candidate spaces exceed the search budget
     and the surrogate is meant to pay off.

   The training ops are [Generator.generate ~seed]'s. The validation ops
   are a stratified draw of the same per-kind counts (see [stratified]),
   so that the seed changes which ops are searched but not the spread
   of their sizes, which is what moves the speedup geomeans most.

   The program under test only ever receives the generated ops and
   request specs: the seed and the workload name stay in this file. *)

type workload = Table2 | Deep

let workloads = [ ("table2", Table2); ("deep", Deep) ]

let counts = function
  | Table2 -> (Generator.table2_train, Generator.table2_validation)
  | Deep ->
      let deep_of (c : Generator.counts) =
        let total = Generator.total c in
        {
          Generator.c_matmul = total / 2;
          c_conv2d = total - (total / 2);
          c_maxpool = 0;
          c_add = 0;
          c_relu = 0;
        }
      in
      (deep_of Generator.table2_train, deep_of Generator.table2_validation)

(* Serve streams: each request is a spec not requested before with
   probability [novelty] (taken in the pool's seeded order), otherwise a
   repeat of an earlier spec, Zipf(1)-skewed towards the specs that
   appeared first. The pool holds each distinct spec once, so a fixed
   novelty keeps the share of result-cache misses the same from seed to
   seed. *)
let novelty = 0.01

type t = {
  split : Generator.split;
  surrogate_ops : Linalg.t array;
      (** a disjoint draw of training ops whose evaluation logs train the
          surrogate in set-up *)
  spec_pool : string array;
      (** the distinct specs of all the workload's ops, in seeded
          first-use order *)
  seed : int;
}

let surrogate_op_count = 24

(* A validation op's work: iteration points times flops per point. *)
let log_work op =
  Float.log
    (float_of_int (Linalg.iteration_count op)
    *. float_of_int (max 1 (Linalg.flops_per_point op)))

(* Stratified draw of [c] ops of every kind: [strata_width * c]
   candidates from [Generator.random_op], sorted by [log_work] and cut
   into [c] equal strata; slot [i] takes one op of stratum [i] at random.
   Against a plain draw this halves the seed-to-seed quartile spread of
   the exact-search speedup geomean over the Table 2 validation counts
   (0.12 -> 0.06 over seeds 1-10). *)
let strata_width = 4

let stratified rng (c : Generator.counts) =
  let per_kind (kind, n) =
    let cands = Array.init (strata_width * n) (fun _ -> Generator.random_op rng kind) in
    let keyed = Array.map (fun op -> (log_work op, op)) cands in
    Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) keyed;
    List.init n (fun i ->
        let op = snd keyed.((i * strata_width) + Util.Rng.int rng strata_width) in
        { op with Linalg.op_name = Printf.sprintf "val_%s_%03d" op.Linalg.op_name (i + 1) })
  in
  Array.of_list
    (List.concat_map per_kind
       [
         ("matmul", c.Generator.c_matmul);
         ("conv2d", c.Generator.c_conv2d);
         ("maxpool", c.Generator.c_maxpool);
         ("add", c.Generator.c_add);
         ("relu", c.Generator.c_relu);
       ])

let make workload ~seed =
  let train_counts, validation_counts = counts workload in
  let split =
    {
      (Generator.generate ~train_counts ~validation_counts ~seed ()) with
      Generator.validation =
        stratified (Util.Rng.derive seed ~stream:2) validation_counts;
    }
  in
  let rng = Util.Rng.derive seed ~stream:1 in
  (* Surrogate training draw: another generator seed, minus any op that
     is structurally one of the validation ops it will rank. *)
  let other =
    Generator.generate ~train_counts ~validation_counts
      ~seed:(Util.Rng.int rng 1_000_000_000) ()
  in
  let val_digests = Hashtbl.create 67 in
  Array.iter
    (fun op -> Hashtbl.replace val_digests (Linalg.digest op) ())
    split.Generator.validation;
  let candidates =
    Array.of_list
      (List.filter
         (fun op -> not (Hashtbl.mem val_digests (Linalg.digest op)))
         (Array.to_list other.Generator.train))
  in
  Util.Rng.shuffle rng candidates;
  let surrogate_ops =
    Array.sub candidates 0 (min surrogate_op_count (Array.length candidates))
  in
  let spec_pool =
    Array.of_list
      (List.sort_uniq compare
         (List.filter_map Op_spec.to_spec
            (Array.to_list
               (Array.append split.Generator.train split.Generator.validation))))
  in
  Util.Rng.shuffle rng spec_pool;
  { split; surrogate_ops; spec_pool; seed }

(* [n] request specs for one serve phase; [stream] keeps phases apart,
   and the pool is used from the [part]-th of [parts] equal parts on, so
   the rounds of a run meet different specs first. *)
let request_stream ?(part = 0) ?(parts = 1) t ~stream n =
  let rng = Util.Rng.derive t.seed ~stream:(100 + stream) in
  let len = Array.length t.spec_pool in
  let pool =
    Array.init len (fun i -> t.spec_pool.((i + (part * len / parts)) mod len))
  in
  let fresh = ref 0 in
  let out = Array.make n "" in
  for i = 0 to n - 1 do
    if !fresh = 0 || (!fresh < Array.length pool && Util.Rng.uniform rng < novelty)
    then begin
      out.(i) <- pool.(!fresh);
      incr fresh
    end
    else
      (* Rank r of the k seen specs with probability ~ 1/(r+1). *)
      let k = float_of_int !fresh in
      let r = int_of_float (Float.exp (Util.Rng.uniform rng *. Float.log (k +. 1.0))) - 1 in
      out.(i) <- pool.(max 0 (min (!fresh - 1) r))
  done;
  out
