(* Log-bucketed histograms: bounds base * ratio^i for i in [0, n_buckets),
   plus a +Inf overflow bucket. base 1e-6 (1us) and ratio 2 give 30
   buckets up to ~17 minutes — plenty for request latencies — with at
   most 2x relative overestimate from quantile. *)

let n_buckets = 30

let base_bound = 1e-6

let ratio = 2.0

type hist = {
  bounds : float array; (* length n_buckets, ascending *)
  buckets : int array; (* length n_buckets + 1; last is +Inf *)
  mutable sum : float;
  mutable count : int;
}

type t = {
  mutex : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let incr t ?(by = 1) name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.counters name (ref by))

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let make_hist () =
  let bounds = Array.init n_buckets (fun i -> base_bound *. (ratio ** float_of_int i)) in
  { bounds; buckets = Array.make (n_buckets + 1) 0; sum = 0.0; count = 0 }

let bucket_index h v =
  (* First bucket whose upper bound contains v; linear scan is fine for
     30 buckets and avoids float-log edge cases. *)
  let rec go i = if i >= n_buckets then n_buckets else if v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe t name v =
  with_lock t (fun () ->
      let h =
        match Hashtbl.find_opt t.hists name with
        | Some h -> h
        | None ->
            let h = make_hist () in
            Hashtbl.replace t.hists name h;
            h
      in
      let v = if v < 0.0 || Float.is_nan v then 0.0 else v in
      h.buckets.(bucket_index h v) <- h.buckets.(bucket_index h v) + 1;
      h.sum <- h.sum +. v;
      h.count <- h.count + 1)

let hist_count t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with Some h -> h.count | None -> 0)

let hist_sum t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with Some h -> h.sum | None -> 0.0)

let quantile t name q =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | None -> None
      | Some h when h.count = 0 -> None
      | Some h ->
          let q = Float.max 0.0 (Float.min 1.0 q) in
          let rank = int_of_float (Float.round (q *. float_of_int (h.count - 1))) + 1 in
          let rec go i seen =
            if i > n_buckets then h.bounds.(n_buckets - 1)
            else
              let seen = seen + h.buckets.(i) in
              if seen >= rank then
                if i < n_buckets then h.bounds.(i) else Float.infinity
              else go (i + 1) seen
          in
          Some (go 0 0))

let sorted_keys tbl = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let render t =
  with_lock t (fun () ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun name ->
          let v = !(Hashtbl.find t.counters name) in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
        (sorted_keys t.counters);
      List.iter
        (fun name ->
          let h = Hashtbl.find t.hists name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + b;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (float_str h.bounds.(i)) !cum))
            (Array.sub h.buckets 0 n_buckets);
          cum := !cum + h.buckets.(n_buckets);
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name !cum);
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (float_str h.sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.count))
        (sorted_keys t.hists);
      Buffer.contents buf)

let stats_line t =
  (* Quantiles call back into the lock, so gather the raw data under the
     lock and format outside it. *)
  let counters, hists =
    with_lock t (fun () ->
        ( List.map (fun k -> (k, !(Hashtbl.find t.counters k))) (sorted_keys t.counters),
          sorted_keys t.hists ))
  in
  let parts =
    List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters
    @ List.concat_map
        (fun k ->
          let p50 = match quantile t k 0.5 with Some v -> v | None -> 0.0 in
          let p99 = match quantile t k 0.99 with Some v -> v | None -> 0.0 in
          [
            Printf.sprintf "%s_count=%d" k (hist_count t k);
            Printf.sprintf "%s_sum=%s" k (float_str (hist_sum t k));
            Printf.sprintf "%s_p50=%s" k (float_str p50);
            Printf.sprintf "%s_p99=%s" k (float_str p99);
          ])
        hists
  in
  String.concat " " parts
