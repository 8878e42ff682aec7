(* Metric collection, summary statistics and the result line. *)

(* The value with exactly [beyond] samples above it — [search.op_ms.p85]
   is the 57th of 67 per-op walls, the highest percentile that still has
   ten ops past it. *)
let tail_value ~beyond xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(max 0 (Array.length a - 1 - beyond))

let ratio hits misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

(* Metrics of one run, in insertion order. *)
let metrics : (string * float * string) list ref = ref []
let add name unit value = metrics := (name, value, unit) :: !metrics

(* Operation accounting for the result line. *)
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end

(* Input properties and other context, printed as one JSON line before
   the result line. *)
let info : (string * string) list ref = ref []
let note key value = info := (key, value) :: !info

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let print_info () =
  let fields =
    List.rev_map (fun (k, v) -> Printf.sprintf "%S: %s" k v) !info
  in
  Printf.printf "{\"info\": {%s}}\n" (String.concat ", " fields)

let print_result () =
  let ms = List.rev !metrics in
  let all_finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  List.iter (fun f -> Printf.eprintf "FAILED: %s\n" f) (List.rev !failures);
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && all_finite && !attempted > 0)
    (max 1 !attempted) !failed
    (String.concat ", " fields)
