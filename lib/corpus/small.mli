(** Embedded example programs — the workloads of the paper's evaluation.

    Each value is [(filename, contents)] ready for
    [Lang.Frontend.load ~files].  [matrix_c] reproduces the source of
    Fig 10 (the [aarr] example behind Figs 6-9); [fig1_f] the
    interprocedural example of Fig 1; {!Nas_lu.files} the NAS-LU-shaped
    program behind Figs 11-14 and Tables II-IV. *)

val fig1_f : string * string
(** Fig 1: P1 defines A(1:100,1:100), P2 uses A(101:200,101:200) inside the
    same loop — the motivating parallelizable pattern. *)

val matrix_c : string * string
(** Fig 10: int aarr[20], two DEF loops ([0:7] and [1:8]) and three USE
    sites ([0:7] twice, strided [2:6:2] once) — regenerates Fig 9's rows,
    including the copyin(aarr[2:7]) advice and the resize-to-9 advice. *)

val stride_f : string * string
(** Negative and non-unit strides, symbolic bounds, and a messy subscript:
    exercises the bound kinds (CONST / IVAR / MESSY) in one file. *)

val caf_f : string * string
(** Coarray Fortran halo exchange: remote writes [halo(i)[me+1]] and reads
    [work(i)[me+1]] — exercises the paper's future-work PGAS analysis
    (RDEF/RUSE modes). *)
