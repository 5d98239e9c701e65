open Numeric
open Whirl

type sparse = {
  sp_st : int;
  sp_lo : int option;
  sp_hi : int option;
  sp_monotonic : bool;
  sp_injective : bool;
  sp_inner : Linear.Expr.t option;
}

type env = {
  var_of_st : int -> Linear.Var.t option;
  const_of_st : int -> int option;
  iprop_of_st : int -> Lang.Iprop.t;
}

type result = Affine of Linear.Expr.t | Sparse of sparse | Messy

let int_const_of = function
  | Affine e when Linear.Expr.is_const e ->
    let c = Linear.Expr.constant e in
    if Rat.is_integer c then Some (Rat.to_int c) else None
  | _ -> None

let shift_sparse s c =
  {
    s with
    sp_lo = Option.map (fun l -> l + c) s.sp_lo;
    sp_hi = Option.map (fun h -> h + c) s.sp_hi;
  }

(* c - s / -s: value bounds flip; monotone direction flips but the flag
   only records "monotone in the loop index", which negation preserves *)
let negate_sparse s =
  {
    s with
    sp_lo = Option.map (fun h -> -h) s.sp_hi;
    sp_hi = Option.map (fun l -> -l) s.sp_lo;
  }

let rec of_wn env (w : Wn.t) : result =
  match w.Wn.operator with
  | Wn.OPR_INTCONST -> Affine (Linear.Expr.of_int w.Wn.const_val)
  | Wn.OPR_LDID -> (
    match env.const_of_st w.Wn.st_idx with
    | Some v -> Affine (Linear.Expr.of_int v)
    | None -> (
      match env.var_of_st w.Wn.st_idx with
      | Some v -> Affine (Linear.Expr.var v)
      | None -> Messy))
  | Wn.OPR_NEG -> (
    match of_wn env (Wn.kid w 0) with
    | Affine e -> Affine (Linear.Expr.neg e)
    | Sparse s -> Sparse (negate_sparse s)
    | Messy -> Messy)
  | Wn.OPR_ADD -> (
    match of_wn env (Wn.kid w 0), of_wn env (Wn.kid w 1) with
    | Affine a, Affine b -> Affine (Linear.Expr.add a b)
    | (Sparse s, (Affine _ as other)) | ((Affine _ as other), Sparse s) -> (
      match int_const_of other with
      | Some c -> Sparse (shift_sparse s c)
      | None -> Messy)
    | _, _ -> Messy)
  | Wn.OPR_SUB -> (
    match of_wn env (Wn.kid w 0), of_wn env (Wn.kid w 1) with
    | Affine a, Affine b -> Affine (Linear.Expr.sub a b)
    | Sparse s, (Affine _ as other) -> (
      match int_const_of other with
      | Some c -> Sparse (shift_sparse s (-c))
      | None -> Messy)
    | (Affine _ as other), Sparse s -> (
      match int_const_of other with
      | Some c -> Sparse (shift_sparse (negate_sparse s) c)
      | None -> Messy)
    | _, _ -> Messy)
  | Wn.OPR_MPY -> (
    match of_wn env (Wn.kid w 0), of_wn env (Wn.kid w 1) with
    | Affine a, Affine b ->
      if Linear.Expr.is_const a then
        Affine (Linear.Expr.scale (Linear.Expr.constant a) b)
      else if Linear.Expr.is_const b then
        Affine (Linear.Expr.scale (Linear.Expr.constant b) a)
      else Messy
    | _, _ -> Messy)
  | Wn.OPR_DIV -> (
    (* exact constant division only *)
    match of_wn env (Wn.kid w 0), of_wn env (Wn.kid w 1) with
    | Affine a, Affine b when Linear.Expr.is_const a && Linear.Expr.is_const b
      ->
      let d = Linear.Expr.constant b in
      if Rat.equal d Rat.zero then Messy
      else Affine (Linear.Expr.const (Rat.div (Linear.Expr.constant a) d))
    | _, _ -> Messy)
  | Wn.OPR_ILOAD -> (
    (* a subscript loaded through an index array: usable when the array is
       1-D, carries declared properties, and is itself indexed linearly *)
    let addr = Wn.kid w 0 in
    if addr.Wn.operator <> Wn.OPR_ARRAY || Wn.num_dim addr <> 1 then Messy
    else
      let base = Wn.array_base addr in
      if base.Wn.operator <> Wn.OPR_LDA then Messy
      else
        (* even a property-less index array yields Sparse rather than
           Messy: the region still degrades to the clamp path, but the
           access keeps the array's name for runtime-inspector entries *)
        let ip = env.iprop_of_st base.Wn.st_idx in
        let inner =
          match of_wn env (Wn.array_index addr 0) with
          | Affine e -> Some e
          | Sparse _ | Messy -> None
        in
        Sparse
          {
            sp_st = base.Wn.st_idx;
            sp_lo = ip.Lang.Iprop.ip_lo;
            sp_hi = ip.Lang.Iprop.ip_hi;
            sp_monotonic = ip.Lang.Iprop.ip_monotonic;
            sp_injective = ip.Lang.Iprop.ip_injective;
            sp_inner = inner;
          })
  | _ -> Messy
