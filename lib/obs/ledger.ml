(* The persistent run ledger: one schema-versioned JSON record per
   pipeline run, appended under <cache-dir>/ledger/.

   This module is deliberately generic — lib/obs knows nothing about the
   engine — so it only owns the mechanics: run-id generation, durable
   appends, and reading the records back.  The record *content* is
   assembled by the pipeline (lib/engine) and consumed by dragon
   history/regress/explain.

   Concurrency: every run writes its own file, named by the run id, via
   write-to-temp + rename — two processes sharing a cache directory can
   never interleave bytes or clobber each other, and a reader only ever
   sees complete records.  Run ids order lexicographically by wall-clock
   start time (nanosecond hex, zero-padded), so a directory listing is the
   run history. *)

let schema_version = 1
let dir ~cache_dir = Filename.concat cache_dir "ledger"

(* <ns-since-epoch:016x>-<pid:06d>-<seq:04d>: time-ordered across
   machines-with-one-clock, collision-free across processes (pid) and
   within a process (seq). *)
let seq = Atomic.make 0

let new_run_id () =
  let ns = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  Printf.sprintf "%016Lx-%06d-%04d" ns
    (Unix.getpid () mod 1_000_000)
    (Atomic.fetch_and_add seq 1)

(* a directory that a concurrent process creates between the check and
   the mkdir is not an error *)
let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let record_path ~cache_dir ~run_id =
  Filename.concat (dir ~cache_dir) (run_id ^ ".jsonl")

let append ~cache_dir ~run_id record =
  let d = dir ~cache_dir in
  mkdir_p d;
  let final = record_path ~cache_dir ~run_id in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc record;
  if String.length record = 0 || record.[String.length record - 1] <> '\n'
  then output_char oc '\n';
  close_out oc;
  Sys.rename tmp final;
  final

(* Every parseable record in the ledger, oldest first.  A record's run id
   is read from the record itself when present (one file can hold several
   JSONL lines), falling back to the file name; unreadable or half-written
   files are skipped — a reader must tolerate a concurrent writer. *)
let read_all ~cache_dir =
  let d = dir ~cache_dir in
  let files =
    match Sys.readdir d with
    | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort compare
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun file ->
      let path = Filename.concat d file in
      match
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        s
      with
      | exception Sys_error _ -> []
      | contents ->
        String.split_on_char '\n' contents
        |> List.filter_map (fun line ->
               if String.trim line = "" then None
               else
                 match Json.parse line with
                 | Error _ -> None
                 | Ok record ->
                   let run_id =
                     match
                       Option.bind (Json.member "run_id" record)
                         Json.to_string
                     with
                     | Some id -> id
                     | None -> Filename.chop_suffix file ".jsonl"
                   in
                   Some (run_id, record)))
    files
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Collision-safe variant of a user-chosen output path: "out/trace.json"
   with run id R becomes "out/trace-R.json", so concurrent runs sharing a
   directory never overwrite each other's traces or metrics dumps. *)
let suffixed_path ~run_id path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let stem = Filename.remove_extension base in
  let ext = Filename.extension base in
  Filename.concat dir (stem ^ "-" ^ run_id ^ ext)
