let mix acc h = (acc * 0x01000193) lxor (h land max_int)

let shard_bits = 6
let shards = 1 lsl shard_bits

(* Each shard's [Hashtbl] picks a bucket from the low bits of its hash, so
   the shard must come from other bits.  Both come from [spread], a
   full-avalanche (MurmurHash3) mix below 2^30: the shard from its top
   bits, the bucket from its low bits.  The raw content hashes are unfit
   for either.  Their low bits depend only on the low bits of what they
   fold in: a shard taken from them leaves 63 of every 64 buckets empty,
   and [System.hash] of consecutive constraint ids clusters into few
   buckets.  Their high bits cannot pick the shard either, since
   [Constr.hash]'s are fixed by the op tag. *)
let spread h = Hashtbl.hash h
let shard_of m = m lsr (30 - shard_bits)

type stats = {
  bindings : int;
  buckets : int;
  occupied_buckets : int;
  max_chain : int;
  min_shard : int;
  max_shard : int;
}

let registry : (string * (unit -> stats)) list ref = ref []

let tables () = List.rev_map (fun (name, stats) -> (name, stats ())) !registry

module Make (H : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val with_id : t -> int -> t
  val name : string
end) =
struct
  module Tbl = Hashtbl.Make (struct
    type t = H.t

    let equal = H.equal
    let hash t = spread (H.hash t)
  end)

  type shard = { mutex : Mutex.t; tbl : H.t Tbl.t }

  let table =
    Array.init shards (fun _ ->
        { mutex = Mutex.create (); tbl = Tbl.create 256 })

  (* ids are unique across shards; 0 is never handed out so that freshly
     built candidates (id -1) can never collide with a canonical id *)
  let next_id = Atomic.make 1
  let metric suffix = "linear.intern." ^ H.name ^ "." ^ suffix
  let c_hits = Obs.Metrics.counter (metric "hits")
  let c_misses = Obs.Metrics.counter (metric "misses")
  let g_bindings = Obs.Metrics.gauge (metric "bindings")
  let g_occupied = Obs.Metrics.gauge (metric "occupied_buckets")
  let g_max_chain = Obs.Metrics.gauge (metric "max_chain")

  let intern node =
    let s = table.(shard_of (spread (H.hash node))) in
    Mutex.lock s.mutex;
    match Tbl.find_opt s.tbl node with
    | Some v ->
      Mutex.unlock s.mutex;
      Obs.Metrics.Counter.incr c_hits;
      v
    | None ->
      let v = H.with_id node (Atomic.fetch_and_add next_id 1) in
      Tbl.add s.tbl v v;
      Mutex.unlock s.mutex;
      Obs.Metrics.Counter.incr c_misses;
      v

  let stats () =
    let st =
      Array.fold_left
        (fun acc s ->
          let h = Mutex.protect s.mutex (fun () -> Tbl.stats s.tbl) in
          {
            bindings = acc.bindings + h.Hashtbl.num_bindings;
            buckets = acc.buckets + h.Hashtbl.num_buckets;
            occupied_buckets =
              acc.occupied_buckets + h.Hashtbl.num_buckets
              - h.Hashtbl.bucket_histogram.(0);
            max_chain = max acc.max_chain h.Hashtbl.max_bucket_length;
            min_shard = min acc.min_shard h.Hashtbl.num_bindings;
            max_shard = max acc.max_shard h.Hashtbl.num_bindings;
          })
        {
          bindings = 0;
          buckets = 0;
          occupied_buckets = 0;
          max_chain = 0;
          min_shard = max_int;
          max_shard = 0;
        }
        table
    in
    Obs.Metrics.Gauge.set g_bindings st.bindings;
    Obs.Metrics.Gauge.set g_occupied st.occupied_buckets;
    Obs.Metrics.Gauge.set g_max_chain st.max_chain;
    st

  let () = registry := (H.name, stats) :: !registry
end
