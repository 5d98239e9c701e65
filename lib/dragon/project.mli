(** A loaded Dragon project: the [.dgn] project file plus the [.rgn] rows,
    [.cfg] blocks and source files it references (paper, Section V-B steps
    3-4: "Invoke our Dragon tool and load the .dgn project").

    Dragon deliberately depends only on the plain-file formats — it is the
    other side of the compiler/GUI boundary, exactly as in the paper where
    the Qt tool knows nothing about OpenUH internals. *)

type t = {
  name : string;
  dgn : Rgnfile.Files.dgn;
  rows : Rgnfile.Row.t list;
  cfg : Rgnfile.Files.cfg_block list;
  sources : (string * string) list;  (** (path, contents) *)
}

val load : dir:string -> project:string -> (t, string) result
(** Reads [<dir>/<project>.dgn], [.rgn], [.cfg], and every source file the
    .dgn lists (resolved relative to [dir], silently skipped if absent). *)

val make :
  name:string ->
  dgn:Rgnfile.Files.dgn ->
  ?rows:Rgnfile.Row.t list ->
  ?cfg:Rgnfile.Files.cfg_block list ->
  ?sources:(string * string) list ->
  unit ->
  t
(** In-memory construction (used when compiler and viewer run in one
    process).  [rows], [cfg] and [sources] default to empty — a bare
    call-graph or feedback view needs none of them. *)

val scopes : t -> string list
(** "@" first, then the procedures that have rows, in row order. *)

val procedures : t -> string list
(** All procedures listed by the .dgn, definition order. *)

val rows_in_scope : t -> string -> Rgnfile.Row.t list

val source : t -> string -> string option
(** By basename or full path. *)
