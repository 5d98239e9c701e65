(** Front-end driver: picks the parser by file extension and runs semantic
    analysis over a set of source files, mirroring how OpenUH's GNU front
    ends feed IPL with one summary per compilation unit. *)

val parse_file : string -> Ast.unit_
(** Dispatch on extension: [.f], [.f77], [.f90] to MiniF; [.c] to MiniC.
    @raise Diag.Frontend_error on unknown extensions or syntax errors. *)

val parse_string : file:string -> string -> Ast.unit_
(** Same dispatch, on an in-memory buffer whose [file] name carries the
    extension. *)

val load : files:(string * string) list -> Sema.program
(** [(name, contents)] pairs through parse + sema. *)

val load_isolated :
  files:(string * string) list -> Sema.program * (string * Diag.t) list
(** Like {!load}, but a file whose parse raises {!Diag.Frontend_error} is
    dropped from the program instead of aborting the batch; the returned
    association lists each failed file with its diagnostic, in input
    order.  Semantic analysis runs over the surviving files (and may still
    raise, e.g. when a survivor calls into a dropped file).  Backs
    [uhc --keep-going]. *)
