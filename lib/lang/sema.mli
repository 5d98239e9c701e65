(** Semantic analysis: merges compilation units into a whole program,
    resolves every name, disambiguates [a(i)] between array reference and
    function call (both parse as {!Ast.Array_ref} in MiniF), constant-folds
    declared bounds, and applies Fortran implicit typing to undeclared
    scalars.

    The result is the input the WHIRL lowering consumes; nothing downstream
    looks at raw names again. *)

module String_map : Map.S with type key = string

(** How a variable is stored; drives the paper's FORMAL/global-@ scoping. *)
type var_class =
  | Local
  | Formal
  | Global of string  (** COMMON block name / "global" for C file scope *)

type array_sig = {
  a_type : Ast.dtype;
  a_dims : (int option * int option) list;
      (** constant-folded [lo, hi] per dimension, [None] when symbolic or
          assumed-size (the paper displays total size 0 for those) *)
  a_coarray : bool;  (** declared with a codimension (Fortran 2008) *)
  a_contiguous : bool;
      (** false for assumed-shape [a(:)] arrays, which may be slices: WHIRL
          marks these with a negative element size *)
  a_iprop : Iprop.t;
      (** declared index-array properties ({!Iprop.none} when undeclared);
          COMMON redeclarations conjoin via {!Iprop.meet} *)
  a_decl_loc : Loc.t;
}

type symbol =
  | Sym_scalar of Ast.dtype * var_class
  | Sym_array of array_sig * var_class
  | Sym_const of int  (** PARAMETER / #define integer constant *)

type proc_info = {
  pi_proc : Ast.proc;  (** body rewritten: calls disambiguated *)
  pi_symbols : symbol String_map.t;
  pi_file : string;
  pi_object : string;  (** the .o name shown in the File column of .rgn *)
  pi_language : Ast.language;
}

type program = {
  prog_procs : proc_info String_map.t;
  prog_order : string list;  (** procedure names in definition order *)
  prog_globals : (array_sig * string) String_map.t;
      (** global arrays: signature and owning block *)
  prog_global_scalars : (Ast.dtype * string) String_map.t;
  prog_files : string list;
  prog_warnings : Diag.t list;
}

val intrinsics : string list
(** Names always treated as function calls (mod, sqrt, max, ...). *)

val is_intrinsic : string -> bool

val analyze : Ast.unit_ list -> program
(** @raise Diag.Frontend_error on semantic errors (rank mismatch,
    inconsistent COMMON declarations, calling a scalar, ...). *)

val const_eval : symbol String_map.t -> Ast.expr -> int option
(** Fold an integer-constant expression using PARAMETER/#define bindings. *)
