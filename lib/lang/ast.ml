type language = Fortran | C

type dtype =
  | Int_t
  | Real_t
  | Double_t
  | Char_t
  | Logical_t

let dtype_size = function
  | Int_t -> 4
  | Real_t -> 4
  | Double_t -> 8
  | Char_t -> 1
  | Logical_t -> 4

let dtype_name = function
  | Int_t -> "int"
  | Real_t -> "real"
  | Double_t -> "double"
  | Char_t -> "char"
  | Logical_t -> "logical"

type binop =
  | Add | Sub | Mul | Div | Pow | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type expr =
  | Int_lit of int
  | Real_lit of float
  | Str_lit of string
  | Logic_lit of bool
  | Var_ref of string * Loc.t
  | Array_ref of string * expr list * Loc.t
  | Coarray_ref of string * expr list * expr * Loc.t
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call_expr of string * expr list * Loc.t

type lvalue =
  | Lvar of string * Loc.t
  | Larr of string * expr list * Loc.t
  | Lcoarr of string * expr list * expr * Loc.t

type stmt =
  | Assign of lvalue * expr * Loc.t
  | If of expr * stmt list * stmt list * Loc.t
  | Do of do_loop
  | While of expr * stmt list * Loc.t
  | Call of string * expr list * Loc.t
  | Return of expr option * Loc.t
  | Print of expr list * Loc.t
  | Nop of Loc.t

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option;
  do_body : stmt list;
  do_loc : Loc.t;
}

type dim = { dim_lo : expr; dim_hi : expr option; dim_assumed_shape : bool }

type decl = {
  decl_name : string;
  decl_type : dtype;
  decl_dims : dim list;
  decl_common : string option;
  decl_coarray : bool;
  decl_loc : Loc.t;
}

type proc_kind = Program | Subroutine | Function of dtype

type proc = {
  proc_name : string;
  proc_kind : proc_kind;
  proc_params : string list;
  proc_decls : decl list;
  proc_consts : (string * expr) list;
  proc_body : stmt list;
  proc_loc : Loc.t;
}

type unit_ = {
  unit_file : string;
  unit_language : language;
  unit_globals : decl list;
  unit_consts : (string * expr) list;
  unit_procs : proc list;
  unit_iprops : (string * Iprop.t) list;
}

let rec loc_of_expr = function
  | Int_lit _ | Real_lit _ | Str_lit _ | Logic_lit _ -> Loc.dummy
  | Var_ref (_, l) | Array_ref (_, _, l) | Call_expr (_, _, l)
  | Coarray_ref (_, _, _, l) ->
    l
  | Binop (_, a, b) ->
    let la = loc_of_expr a in
    if Loc.equal la Loc.dummy then loc_of_expr b else la
  | Unop (_, e) -> loc_of_expr e

let loc_of_stmt = function
  | Assign (_, _, l) | If (_, _, _, l) | While (_, _, l)
  | Call (_, _, l) | Return (_, l) | Print (_, l) | Nop l -> l
  | Do d -> d.do_loc

let loc_of_lvalue = function
  | Lvar (_, l) | Larr (_, _, l) | Lcoarr (_, _, _, l) -> l

let pp_dtype ppf t = Format.pp_print_string ppf (dtype_name t)

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "**"
  | Mod -> "mod" | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<="
  | Gt -> ">" | Ge -> ">=" | And -> ".and." | Or -> ".or."

let pp_binop ppf b = Format.pp_print_string ppf (binop_str b)

let rec pp_expr ppf = function
  | Int_lit n -> Format.fprintf ppf "%d" n
  | Real_lit f -> Format.fprintf ppf "%g" f
  | Str_lit s -> Format.fprintf ppf "%S" s
  | Logic_lit b -> Format.pp_print_string ppf (if b then ".true." else ".false.")
  | Var_ref (n, _) -> Format.pp_print_string ppf n
  | Array_ref (n, idx, _) ->
    Format.fprintf ppf "%s(%a)" n pp_expr_list idx
  | Coarray_ref (n, idx, img, _) ->
    Format.fprintf ppf "%s(%a)[%a]" n pp_expr_list idx pp_expr img
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Unop (Neg, e) -> Format.fprintf ppf "(-%a)" pp_expr e
  | Unop (Not, e) -> Format.fprintf ppf "(.not. %a)" pp_expr e
  | Call_expr (n, args, _) -> Format.fprintf ppf "%s(%a)" n pp_expr_list args

and pp_expr_list ppf es =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_expr ppf es

let rec expr_equal a b =
  match a, b with
  | Int_lit x, Int_lit y -> x = y
  | Real_lit x, Real_lit y -> x = y
  | Str_lit x, Str_lit y -> String.equal x y
  | Logic_lit x, Logic_lit y -> x = y
  | Var_ref (x, _), Var_ref (y, _) -> String.equal x y
  | Array_ref (x, xi, _), Array_ref (y, yi, _) ->
    String.equal x y && exprs_equal xi yi
  | Coarray_ref (x, xi, xm, _), Coarray_ref (y, yi, ym, _) ->
    String.equal x y && exprs_equal xi yi && expr_equal xm ym
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
    o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && expr_equal e1 e2
  | Call_expr (x, xs, _), Call_expr (y, ys, _) ->
    String.equal x y && exprs_equal xs ys
  | ( ( Int_lit _ | Real_lit _ | Str_lit _ | Logic_lit _ | Var_ref _
      | Array_ref _ | Coarray_ref _ | Binop _ | Unop _ | Call_expr _ ),
      _ ) ->
    false

and exprs_equal xs ys =
  List.length xs = List.length ys && List.for_all2 expr_equal xs ys
