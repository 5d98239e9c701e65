(* Name -> instrument registry behind a mutex; the instruments themselves
   are atomics, so registration is the only synchronized operation —
   lookups happen once per call site at module initialization, updates are
   lock-free from any domain. *)

module Counter = struct
  type t = int Atomic.t

  let incr = Atomic.incr
  let add c n = ignore (Atomic.fetch_and_add c n)
  let get = Atomic.get
  let set = Atomic.set
end

module Gauge = struct
  type t = int Atomic.t

  let set = Atomic.set
  let get = Atomic.get
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_hist of Hist.t

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let mutex = Mutex.create ()

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_hist _ -> "histogram"

let register name make match_ =
  Mutex.lock mutex;
  let r =
    match Hashtbl.find_opt registry name with
    | Some i -> (
      match match_ i with
      | Some x -> Ok x
      | None -> Error (kind_name i))
    | None ->
      let x, i = make () in
      Hashtbl.replace registry name i;
      Ok x
  in
  Mutex.unlock mutex;
  match r with
  | Ok x -> x
  | Error k ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name k)

let counter name =
  register name
    (fun () ->
      let c = Atomic.make 0 in
      (c, I_counter c))
    (function I_counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = Atomic.make 0 in
      (g, I_gauge g))
    (function I_gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      let h = Hist.create () in
      (h, I_hist h))
    (function I_hist h -> Some h | _ -> None)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let sorted_items () =
  Mutex.lock mutex;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) items

let names () = List.map fst (sorted_items ())

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_buckets : (int * int * int) list;
}

type snapshot = S_counter of int | S_gauge of int | S_hist of hist_snapshot

let snapshot_hist h =
  {
    h_count = Hist.count h;
    h_sum = Hist.sum h;
    h_p50 = Hist.percentile h 0.5;
    h_p95 = Hist.percentile h 0.95;
    h_p99 = Hist.percentile h 0.99;
    h_buckets = Hist.nonzero_buckets h;
  }

let snapshot () =
  List.map
    (fun (name, i) ->
      ( name,
        match i with
        | I_counter c -> S_counter (Counter.get c)
        | I_gauge g -> S_gauge (Gauge.get g)
        | I_hist h -> S_hist (snapshot_hist h) ))
    (sorted_items ())

let dump_json () =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n  \"metrics\": [";
  let first = ref true in
  List.iter
    (fun (name, i) ->
      if !first then first := false else bpf ",";
      bpf "\n    {\"name\": \"%s\", \"kind\": \"%s\"" (Json.escape name)
        (kind_name i);
      (match i with
      | I_counter c -> bpf ", \"value\": %d" (Counter.get c)
      | I_gauge g -> bpf ", \"value\": %d" (Gauge.get g)
      | I_hist h ->
        bpf ", \"count\": %d, \"sum\": %d" (Hist.count h) (Hist.sum h);
        bpf ", \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f"
          (Hist.percentile h 0.5) (Hist.percentile h 0.95)
          (Hist.percentile h 0.99);
        bpf ", \"buckets\": [";
        let bfirst = ref true in
        List.iter
          (fun (lo, hi, c) ->
            if !bfirst then bfirst := false else bpf ", ";
            bpf "{\"lo\": %d, \"hi\": %d, \"count\": %d}" lo
              (if hi = max_int then -1 else hi)
              c)
          (Hist.nonzero_buckets h);
        bpf "]");
      bpf "}")
    (sorted_items ());
  bpf "\n  ]\n}\n";
  Buffer.contents b

let save ~path =
  let oc = open_out_bin path in
  output_string oc (dump_json ());
  close_out oc
