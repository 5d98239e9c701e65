type bound = Finite of int | Infinite

type t = { lo : bound; hi : bound }

let bound_le_lo a b =
  (* lower-bound order: Infinite (= -oo) is the least *)
  match a, b with
  | Infinite, _ -> true
  | _, Infinite -> false
  | Finite x, Finite y -> x <= y

let bound_le_hi a b =
  (* upper-bound order: Infinite (= +oo) is the greatest *)
  match a, b with
  | _, Infinite -> true
  | Infinite, _ -> false
  | Finite x, Finite y -> x <= y

let is_empty lo hi =
  match lo, hi with Finite l, Finite h -> l > h | _ -> false

let make lo hi = if is_empty lo hi then None else Some { lo; hi }

let make_exn lo hi =
  match make lo hi with
  | Some t -> t
  | None -> invalid_arg "Interval.make_exn: empty interval"

let of_ints l h = make (Finite l) (Finite h)
let point n = { lo = Finite n; hi = Finite n }
let full = { lo = Infinite; hi = Infinite }

let lo t = t.lo
let hi t = t.hi

let contains t n =
  (match t.lo with Infinite -> true | Finite l -> l <= n)
  && (match t.hi with Infinite -> true | Finite h -> n <= h)

let size t =
  match t.lo, t.hi with
  | Finite l, Finite h -> Some (h - l + 1)
  | _ -> None

let join a b =
  let lo = if bound_le_lo a.lo b.lo then a.lo else b.lo in
  let hi = if bound_le_hi a.hi b.hi then b.hi else a.hi in
  { lo; hi }

let meet a b =
  let lo = if bound_le_lo a.lo b.lo then b.lo else a.lo in
  let hi = if bound_le_hi a.hi b.hi then a.hi else b.hi in
  make lo hi

let subset a b = bound_le_lo b.lo a.lo && bound_le_hi a.hi b.hi

let disjoint a b = match meet a b with None -> true | Some _ -> false

let shift t n =
  let f = function Infinite -> Infinite | Finite x -> Finite (x + n) in
  { lo = f t.lo; hi = f t.hi }

let equal a b = a.lo = b.lo && a.hi = b.hi

let pp_bound ppf = function
  | Infinite -> Format.pp_print_string ppf "*"
  | Finite n -> Format.fprintf ppf "%d" n

let pp ppf t = Format.fprintf ppf "[%a:%a]" pp_bound t.lo pp_bound t.hi
