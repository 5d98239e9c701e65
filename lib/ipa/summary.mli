(** Procedure side-effect summaries and their call-site translation — the
    IPA main phase (paper, Section IV-A: "the main IPA module gathers all
    the IPL summary files to perform interprocedural analysis").

    A summary lists the regions a procedure may USE or DEF, keyed by global
    array or by formal-parameter position.  Translating a summary at a call
    site maps formal keys to the actual arrays, substitutes actual values
    for the callee's symbolic formal scalars (Creusillet-style formal-to-
    actual mapping), and closes the result under the caller's enclosing
    loops. *)

type key =
  | Kglobal of int  (** global-encoded st index *)
  | Kformal of int  (** 0-based parameter position *)

type entry = {
  e_key : key;
  e_mode : Regions.Mode.t;  (** USE or DEF only *)
  e_region : Regions.Region.t;
  e_count : int;  (** number of reference sites summarized *)
}

type t = entry list

val max_regions_per_key : int
(** Per (key, mode) the summary keeps at most this many distinct regions;
    beyond that they collapse by {!Regions.Region.union_approx}. *)

val add_entry : t -> entry -> t
(** Merges with an existing display-equal region, respects the cap. *)

val add_entries : t -> entry list -> t
(** Same result as folding {!add_entry} left-to-right (that fold is the
    definition, and the differential oracle the tests and [bench regions]
    compare against).  Builds the summary through a (key, mode)-bucketed
    index, replacing the per-insertion whole-list scan with a bucket
    lookup, and collapses capped slots through
    {!Regions.Region.union_many}. *)

val of_local :
  Whirl.Ir.module_ -> Whirl.Ir.pu -> Collect.access list -> t
(** Direct accesses only: local arrays are dropped, FORMAL/PASSED modes are
    display-only and skipped. *)

val opaque : Whirl.Ir.module_ -> Whirl.Ir.pu -> t
(** Worst-case summary used for recursive cycles: every global array and
    every formal array is USE+DEF over its whole extent. *)

(** Translation of one callee entry at one call site.  Results: *)
type translated = {
  t_st : int;  (** the caller-side array the entry now describes *)
  t_mode : Regions.Mode.t;
  t_region : Regions.Region.t;
  t_count : int;
}

val translate :
  Whirl.Ir.module_ ->
  caller:Whirl.Ir.pu ->
  callee:Whirl.Ir.pu ->
  site:Collect.site ->
  t ->
  translated list

val pp : Whirl.Ir.module_ -> Whirl.Ir.pu -> Format.formatter -> t -> unit
