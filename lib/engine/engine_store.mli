(** Content-addressed store for per-PU collection results.

    Maps engine-computed digests (of the global symbol table plus one PU's
    serialized WHIRL body, see [Engine]) to that PU's collection result —
    the expensive gather phase of the analysis.  Summaries are not stored:
    the engine recomputes them from cached or fresh collection results,
    which costs less than decoding them.  Entries live in memory and, when
    the store was created with [~dir], also on disk — so repeated tool
    invocations over unchanged sources only re-collect what changed.

    Loaded values are re-interned: symbolic variables inside cached regions
    are resolved through the current process's [Ipa.Collect.sym_var]
    registry, so a cache hit yields structures indistinguishable from a
    fresh analysis.  Lookups are safe to issue from several domains
    concurrently; additions are expected from the coordinating domain.

    Several processes may hold stores over one [~dir] (concurrent [uhc]
    runs sharing a [--cache-dir]).  Publication follows single-writer
    discipline — writes go to a process-private temp file promoted by
    atomic [rename], and a key whose file already exists is skipped
    ([store.publish_skips]) rather than rewritten, which is sound because
    keys are content addresses (same key = same bytes).  Readers therefore only ever observe absent or complete
    entries, never torn ones, and corrupt entries heal through the normal
    quarantine-then-recompute path. *)

type collect_payload = {
  cp_accesses : Ipa.Collect.access list;
  cp_sites : Ipa.Collect.site list;
}

type t

val create : ?dir:string -> unit -> t
(** With [~dir], entries are persisted under
    [dir/<schema>/c-<digest>.bin]; the schema component fingerprints the
    running executable, because Marshal images are only readable by the
    build that wrote them.  The directories are created as needed. *)

val in_memory : unit -> t
(** [create ()] — caching within one process only (e.g. across [--fuse]
    re-analysis). *)

val add_collect : t -> key:Digest.t -> collect_payload -> unit

val find_collect :
  t -> m:Whirl.Ir.module_ -> key:Digest.t -> collect_payload option
(** [None] on a genuine miss and on any unreadable/corrupt entry.

    The store self-heals: on-disk entries carry a checksum header, and an
    entry that fails the checksum or cannot be decoded is quarantined
    (renamed aside, counted in the [store.quarantined] metric, recorded as
    a {!Fault.Diag.t}) so the caller transparently recomputes it.
    Transient read/write failures are retried up to 3 times with a short
    backoff ([store.retries]); exhaustion degrades a read to a miss
    ([store.read_errors]) and a write to a memory-only entry
    ([store.write_errors]), never an exception. *)

val entry_count : t -> int
(** Number of entries currently held in memory (loaded or added). *)

val drain_diags : t -> Fault.Diag.t list
(** Degradation events (quarantines, retry exhaustions) recorded since the
    last drain, oldest first.  {!Engine.run} drains them into its result. *)
