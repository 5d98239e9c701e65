(** Bridge from WHIRL expressions to affine expressions.

    The region analysis only understands affine subscripts.  Whatever cannot
    be linearized — products of variables, loads through arrays, calls — is
    reported as {!Messy}, which the paper's ARA module marks MESSY on the
    corresponding bound.

    One exception carves the sparse workload out of MESSY: a load through a
    1-D integer array carrying declared index properties
    ([A(idx(i))] with [!$uhc index idx ...]) is reported as {!Sparse},
    keeping the declared value bounds (shifted through any constant
    offsets, e.g. the Fortran lower-bound rebase the lowering inserts) and
    property flags so {!Region.of_subscripts} can refine the dimension
    instead of clamping it. *)

type sparse = {
  sp_st : int;  (** WN st code of the index array (for inspector reports) *)
  sp_lo : int option;  (** value lower bound after constant offsets *)
  sp_hi : int option;  (** value upper bound after constant offsets *)
  sp_monotonic : bool;
  sp_injective : bool;
  sp_inner : Linear.Expr.t option;
      (** the affine subscript into the index array itself, when linear *)
}

type env = {
  var_of_st : int -> Linear.Var.t option;
      (** maps a WN [st_idx] to the linear variable standing for it (loop
          induction variables and symbolic scalars); [None] = not trackable *)
  const_of_st : int -> int option;
      (** scalars with a known constant value at this point, if any *)
  iprop_of_st : int -> Lang.Iprop.t;
      (** declared index-array properties for an array symbol
          ({!Lang.Iprop.none} when undeclared or not an array) *)
}

type result = Affine of Linear.Expr.t | Sparse of sparse | Messy

val of_wn : env -> Whirl.Wn.t -> result
(** Understands INTCONST, LDID, NEG, ADD, SUB, MPY-by-constant, and
    ILOAD-through-a-declared-1-D-index-array (which yields {!Sparse};
    constant offsets shift the declared bounds, negation flips them).
    Anything else is {!Messy}. *)
