(** Parallelism detection from region summaries — the paper's third use
    case ("Auto-parallelization ... Compiler inter-procedural analysis of
    side effects; visual feedback on procedures that can be executed in
    parallel").

    Two tests are provided:

    - {!sites_independent}: can two call statements run concurrently?
      (Fig 1: [call P1(A,j)] DEFs A(1:100,1:100) while [call P2(A,j)] USEs
      A(101:200,101:200) — disjoint, so both can be parallelized.)
      Sound: Bernstein's conditions over convex over-approximations.
    - {!loop_parallel}: can a DO loop's iterations run concurrently?
      Compares the regions of iterations [i] and [i'] with [i < i'] added
      to the system; scalar stores inside the body are reported as
      privatization candidates rather than silently ignored. *)

type conflict = {
  c_array : string;
  c_mode1 : Regions.Mode.t;
  c_mode2 : Regions.Mode.t;
  c_region1 : Regions.Region.t;
  c_region2 : Regions.Region.t;
}

type effects = (int * Regions.Mode.t * Regions.Region.t) list
(** (st code, USE|DEF, region) *)

val site_effects :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  caller:Whirl.Ir.pu ->
  Collect.site ->
  effects
(** The callee's summarized side effects translated at the call site. *)

val body_effects :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  Whirl.Ir.pu ->
  Whirl.Wn.t ->
  effects
(** A loop body's direct USE/DEF accesses followed by the translated
    effects of the calls it makes. *)

val feasible_with :
  Linear.System.t ->
  Linear.Constr.t list ->
  Regions.Region.t ->
  Regions.Region.t ->
  bool
(** [feasible_with bounds extras r1 r2]: can a point lie in both regions
    under the loop-bounds system [bounds] and the extra constraints?  The
    caller renames [r2]'s iteration variables first, so [extras] can order
    the two iterations (e.g. [i + 1 <= i']). *)

val sites_independent :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  caller:Whirl.Ir.pu ->
  Collect.site ->
  Collect.site ->
  conflict list
(** Empty list = provably independent (Bernstein over regions). *)

type loop_verdict = {
  lv_parallel : bool;  (** no cross-iteration array conflict *)
  lv_conflicts : conflict list;
  lv_private_scalars : string list;
      (** scalars written in the body: must be privatized (the induction
          variable itself is excluded) *)
}

val loop_parallel :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  Whirl.Ir.pu ->
  Whirl.Wn.t ->
  loop_verdict
(** The WN must be an [OPR_DO_LOOP].  Calls inside the body make the
    verdict conservative ([lv_parallel = false] with a whole-array
    conflict) unless their effects are absent. *)
