(* In-memory span recorder for the traced run.

   A span is (id, parent, layer, name, start, stop, calls): the time the
   benchmark spent inside one call it made into a library layer. [calls]
   is the number of library calls the span covers — 1 except for spans
   around tight loops of sub-microsecond calls (digests), where one span
   times a whole batch. Spans nest through an explicit stack, so a span
   opened inside another records it as its parent and the parent's self
   time excludes it.

   Recording happens only on the main domain: worker domains run inside
   monolithic library calls and are never instrumented. With tracing off
   [with_span] is one branch on a bool ref and a direct call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  calls : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let now_ns = Monotonic_clock.now

let with_span ?(calls = 1) ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      stack := List.tl !stack;
      recorded :=
        { id; parent; layer; name; start_ns; stop_ns; calls } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans () = List.rev !recorded
let dur_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type totals = { ns : float; calls : int; spans : int }

(* Totals of the spans named [name]. *)
let totals name =
  List.fold_left
    (fun t s ->
      if s.name = name then
        { ns = t.ns +. dur_ns s; calls = t.calls + s.calls; spans = t.spans + 1 }
      else t)
    { ns = 0.0; calls = 0; spans = 0 }
    !recorded

(* Mean time per library call of the spans named [name], in [unit_ns]. *)
let per_call ?(unit_ns = 1.0) name =
  let t = totals name in
  if t.calls = 0 then 0.0 else t.ns /. float_of_int t.calls /. unit_ns

(* Mean time per span named [name], in [unit_ns]. *)
let per_span ?(unit_ns = 1.0) name =
  let t = totals name in
  if t.spans = 0 then 0.0 else t.ns /. float_of_int t.spans /. unit_ns

(* Self time per layer: each span's duration minus its children's. *)
let self_ns_by_layer () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace tbl s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer)))
    !recorded;
  tbl

(* One tab-separated line per span, times relative to the first span. *)
let write path =
  let all = spans () in
  let origin = match all with [] -> 0L | s :: _ -> s.start_ns in
  let oc = open_out path in
  output_string oc "id\tparent\tlayer\tname\tstart_ns\tstop_ns\tcalls\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%s\t%Ld\t%Ld\t%d\n" s.id s.parent s.layer
        s.name
        (Int64.sub s.start_ns origin)
        (Int64.sub s.stop_ns origin)
        s.calls)
    all;
  close_out oc
