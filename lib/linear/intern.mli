(** Hash-consing support for the linear-algebra terms.

    Each syntactic class ({!Expr}, {!Constr}, {!System}) keeps one global
    intern table mapping a node's content to its unique representative; the
    representative carries a process-unique integer id, so equality of
    interned values is one integer comparison and hashing is O(1).

    Ids are allocation-order dependent (hence scheduling-dependent under
    the parallel engine and unstable across processes): they may back
    equality tests and memo keys, but never anything rendered, persisted,
    or used to order output — canonical orderings stay structural.

    Tables are sharded by content hash to keep lock contention negligible
    under the engine's worker domains, and are never cleared: dropping a
    table while live values still carry its ids would let two structurally
    equal terms intern to different ids.  The shard and the bucket within
    it come from disjoint bits of one full-avalanche remix of the content
    hash, so every shard can use all of its buckets. *)

val shards : int
(** Shards per table: 64. *)

(** Health of one intern table, summed over its shards.  A well-spread
    table occupies nearly [min bindings buckets] buckets, keeps chains
    short, and keeps every shard near [bindings / shards]. *)
type stats = {
  bindings : int;
  buckets : int;
  occupied_buckets : int;  (** buckets holding at least one binding *)
  max_chain : int;  (** longest bucket chain in any shard *)
  min_shard : int;  (** bindings in the emptiest shard *)
  max_shard : int;  (** bindings in the fullest shard *)
}

module Make (H : sig
  type t

  val equal : t -> t -> bool
  (** Structural equality of the content, ignoring the id field. *)

  val hash : t -> int
  (** Structural hash of the content, ignoring the id field. *)

  val with_id : t -> int -> t
  (** The same node carrying its freshly assigned id. *)

  val name : string
  (** Metric suffix: hit/miss counters register as
      ["linear.intern.<name>.hits"] / [".misses"]. *)
end) : sig
  val intern : H.t -> H.t
  (** [intern node] returns the canonical representative of [node]'s
      content: the previously interned value if one exists (the candidate
      is dropped), otherwise [node] with a fresh id, now canonical. *)

  val stats : unit -> stats
  (** The table's current health.  Also sets the gauges
      ["linear.intern.<name>.bindings"], [".occupied_buckets"] and
      [".max_chain"], so the next metrics snapshot carries them. *)
end

val tables : unit -> (string * stats) list
(** [(name, stats ())] for every table made by {!Make}, in creation order
    (expr, constr, system); publishes every table's gauges. *)

val mix : int -> int -> int
(** Hash combinator: [mix acc h] folds [h] into [acc] (FNV-style). *)
