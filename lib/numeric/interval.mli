(** Integer intervals with optional unbounded endpoints.

    Used by the region machinery as the concrete lattice for a single array
    dimension after Fourier-Motzkin projection: a bound that the solver could
    not establish stays [None] (the paper marks these UNPROJECTED). *)

type bound = Finite of int | Infinite

type t = private { lo : bound; hi : bound }
(** Invariant: if both bounds are finite then [lo <= hi]. *)

val make : bound -> bound -> t option
(** [make lo hi] is [None] when the interval is empty (finite [lo > hi]). *)

val make_exn : bound -> bound -> t
(** @raise Invalid_argument on an empty interval. *)

val of_ints : int -> int -> t option
val point : int -> t
val full : t

val lo : t -> bound
val hi : t -> bound

val contains : t -> int -> bool
val size : t -> int option
(** Number of integers in the interval, [None] if unbounded. *)

val join : t -> t -> t
(** Smallest interval containing both (convex union). *)

val meet : t -> t -> t option
(** Intersection; [None] when empty. *)

val subset : t -> t -> bool
(** [subset a b] iff every point of [a] is in [b]. *)

val disjoint : t -> t -> bool

val shift : t -> int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_bound : Format.formatter -> bound -> unit
