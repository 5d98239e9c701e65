(** Differential harness: static bounds verdicts vs one interpreted run.

    Executes the module under {!Interp.run} with [~record_oob:true] and
    cross-checks every observed out-of-bounds access against the bounds
    verdict table keyed by (executing procedure, array, direction, source
    line):

    - a fault whose every verdict row is safe is a [safe_fault] — the
      static analysis proved an access the runtime refuted;
    - a fault with no maybe/unsafe row is [uncovered] — no runtime
      inspector was emitted for it.

    Both must be zero, and the run must finish within the interpreter's
    step budget, for the summary's [ok] to read ["true"].  A run that
    exhausts the budget keeps the events seen so far (checked as usual),
    adds [completed=false] to the summary and a Warning diagnostic naming
    the budget.  Columns: Proc, Array, Mode, Line, Coords, Kind, Covered,
    SafeFault — one row per out-of-bounds event in execution order.
    Summary keys: [verdict_rows], [steps], [completed] (exhausted runs
    only), [oob_events], [covered], [uncovered], [safe_faults], [ok]. *)

val name : string

val run : Analysis.ctx -> Report.t * Fault.Diag.t list

val check :
  Analysis.ctx -> completed:bool -> Interp.outcome ->
  Report.t * Fault.Diag.t list
(** The cross-check of {!run} over a given [~record_oob:true] outcome of
    the context's module; [completed:false] marks the partial outcome of a
    run that raised [Interp.Out_of_fuel]. *)
