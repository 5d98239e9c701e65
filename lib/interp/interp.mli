(** A direct interpreter of high-level WHIRL.

    Two roles in the reproduction:

    - it drives the {!Cache} simulator through the [observer] hook (every
      array element access reports the virtual address computed with the
      WHIRL address formula [base + z * sum_i (y_i * prod_{j>i} h_j)] over
      the {!Whirl.Layout} addresses), which is how the Case 1 fusion claim
      is measured;
    - it implements the paper's future-work item "dynamic array region
      information": each run records, per (scope, array, mode), the regular
      section actually touched, which the tests compare against the static
      regions (static must cover dynamic). *)

type value = Vint of int | Vreal of float | Vstr of string

type event = {
  ev_write : bool;
  ev_addr : int;   (** byte address from the layout pass *)
  ev_bytes : int;  (** element size *)
  ev_scope : string;  (** "@" for globals, else the procedure name *)
  ev_array : string;
  ev_coords : int list;  (** zero-based row-major element coordinates *)
}

exception Runtime_error of string * Lang.Loc.t

type dynamic_region = {
  dr_scope : string;
  dr_array : string;
  dr_mode : Regions.Mode.t;  (** USE or DEF *)
  dr_section : Regions.Methods.Section.t;
  dr_count : int;  (** dynamic access count *)
}

type oob = {
  oob_pu : string;       (** the procedure that executed the access *)
  oob_array : string;
      (** the symbol name as [oob_pu] spells it — a by-reference argument
          reports the formal's name, not the caller's actual, so events
          join against the executing PU's static access table *)
  oob_coords : int list; (** zero-based row-major, some coordinate invalid *)
  oob_write : bool;
  oob_line : int;        (** source line of the reference *)
}
(** One observed out-of-bounds access ([~record_oob:true] runs only). *)

type outcome = {
  out_text : string;   (** everything PRINT produced *)
  out_steps : int;
  out_regions : dynamic_region list;
  out_calls : ((string * string) * int) list;
      (** dynamic call-graph feedback: (caller, callee) -> invocation count
          (Dragon's "static/dynamic call graphs with feedback information",
          Fig 5) *)
  out_oob : oob list;
      (** observed out-of-bounds accesses in execution order; always empty
          without [~record_oob:true] (the run traps instead) *)
}

exception Out_of_fuel of outcome
(** The run exhausted its fuel; the outcome describes it up to that point
    ([out_steps] equals the fuel). *)

val run :
  ?fuel:int ->
  ?observer:(event -> unit) ->
  ?record_oob:bool ->
  ?entry:string ->
  Whirl.Ir.module_ ->
  outcome
(** Runs the main program (or [entry]).  [fuel] bounds the number of
    statements executed (default 50 million).

    With [~record_oob:true] an out-of-bounds array access does not raise:
    the event is appended to [out_oob], a read yields the element type's
    zero and a write is dropped, and execution continues — the mode the
    differential harness uses to collect {e every} fault of a run, not just
    the first.  Such accesses are excluded from [out_regions] and from the
    observer stream.
    @raise Runtime_error on out-of-bounds accesses (unless recording), bad
    argument counts, unallocatable (variable-length) local arrays, and type
    confusion.
    @raise Out_of_fuel when the budget is exhausted, carrying the partial
    outcome. *)
