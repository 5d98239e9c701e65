(* One benchmark pass in a fresh process.

   The analysis keeps process-global intern and memo tables, so a second
   pass inside one process measures a different program than a user's
   [uhc] invocation does.  run.py therefore starts this executable once
   per sample:

     pass.exe gen --seed N --files F --out DIR
       writes the Corpus.Gen corpus for that seed and size into DIR

     pass.exe run --src DIR --out DIR [--jobs N] [--store DIR] [--clients]
                  [--dragon] [--trace FILE]
       reads the sources in DIR and drives each layer through its public
       entry point, in the order Pipeline.run calls them:
         Lang.Frontend.load -> Whirl.Lower.lower -> Engine.run
         -> Analyses.Registry.run_selected / Analyses.Diffcheck.run
         -> Ipa.Analyze.write_outputs -> Dragon.Project.load
       and prints one JSON object describing the pass on stdout.

   With [--trace], a span is recorded around each layer call (name, start,
   end, parent, allocation), kept in memory and written to FILE after the
   pass; a full major GC then measures the live heap.  Without it, only the
   whole pass is timed.  Every layer's call site gets its span, also where
   the workload skips the layer: its self time then measures the skip. *)

(* Obs.Trace's CLOCK_MONOTONIC stub; its origin only moves when a trace is
   cleared, which nothing in a pass does *)
let now () = float_of_int (Obs.Trace.now_ns ()) *. 1e-9

(* ---- spans ------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_alloc : float;  (** bytes allocated by this domain inside the span *)
}

let tracing = ref false
let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let a1 = Gc.allocated_bytes () in
    stack := List.tl !stack;
    spans :=
      {
        sp_id = id;
        sp_parent = parent;
        sp_name = name;
        sp_start = t0;
        sp_end = t1;
        sp_alloc = a1 -. a0;
      }
      :: !spans;
    r
  end

(* ---- JSON output ------------------------------------------------------ *)

type json = Obs.Json.t =
  | Obj of (string * json) list
  | List of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let rec to_string = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Printf.sprintf "%.0f" f
  | Num f -> Printf.sprintf "%.17g" f
  | Str s -> "\"" ^ Obs.Json.escape s ^ "\""
  | Bool b -> string_of_bool b
  | Null -> "null"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> to_string (Str k) ^ ":" ^ to_string v) kvs)
    ^ "}"
  | List vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"

let int i = Num (float_of_int i)

(* ---- helpers ---------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Files are passed by base name, as [uhc --corpus gen] names them: the
   name is part of the PU content keys, so an edited copy of the corpus in
   another directory still hits the store for every unedited PU. *)
let read_sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".f")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            Fun.id
        else go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

let summary_int (r : Analyses.Report.t) key =
  match List.assoc_opt key r.Analyses.Report.r_summary with
  | Some v -> ( try int_of_string v with Failure _ -> 0)
  | None -> 0

let summary_str (r : Analyses.Report.t) key =
  Option.value ~default:"" (List.assoc_opt key r.Analyses.Report.r_summary)

(* ---- gen -------------------------------------------------------------- *)

let gen ~seed ~files ~out =
  let cfg =
    { (Corpus.Gen.standard ()) with Corpus.Gen.g_seed = seed; g_files = files }
  in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  List.iter
    (fun (name, contents) ->
      let oc = open_out_bin (Filename.concat out (Filename.basename name)) in
      output_string oc contents;
      close_out oc)
    (Corpus.Gen.generate cfg);
  print_endline
    (to_string
       (Obj
          [
            ("describe", Str (Corpus.Gen.describe cfg));
            ("pus", int (Corpus.Gen.pu_count cfg));
          ]))

(* ---- run -------------------------------------------------------------- *)

let client_names = [ "bounds"; "permissions"; "regions" ]

let run ~src ~out ~jobs ~store_dir ~clients ~dragon ~trace =
  tracing := trace <> None;
  let solver0 = Linear.Solver_stats.snapshot () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let engine_main_alloc = ref 0. in
  let reports = ref [] in
  let dragon_info = ref [] in
  let result, store =
    span "pass" @@ fun () ->
    let files = read_sources src in
    let prog = span "lang.load" (fun () -> Lang.Frontend.load ~files) in
    let m = span "whirl.lower" (fun () -> Whirl.Lower.lower prog) in
    let e, store =
      span "engine.run" (fun () ->
          let b0 = Gc.allocated_bytes () in
          let store =
            Option.map (fun dir -> Engine_store.create ~dir ()) store_dir
          in
          let e = Engine.run (Engine.config ~jobs ?store ()) m in
          engine_main_alloc := Gc.allocated_bytes () -. b0;
          (e, store))
    in
    let r = e.Engine.e_result in
    let ctx =
      { Analyses.Analysis.ctx_module = r.Ipa.Analyze.r_module; ctx_result = r }
    in
    List.iter
      (fun name ->
        span ("analyses." ^ name) (fun () ->
            if clients then
              match Analyses.Registry.run_selected ~selection:[ name ] ctx with
              | [ (report, _) ] -> reports := (name, report) :: !reports
              | _ -> failwith ("no report from " ^ name)))
      client_names;
    span "interp.diffcheck" (fun () ->
        if clients then
          let report, _ = Analyses.Diffcheck.run ctx in
          reports := ("diffcheck", report) :: !reports);
    ignore
      (span "rgnfile.write" (fun () ->
           Ipa.Analyze.write_outputs r ~dir:out ~project:"bench"));
    span "dragon.load" (fun () ->
        if dragon then
          match Dragon.Project.load ~dir:out ~project:"bench" with
          | Ok p ->
            dragon_info :=
              [
                ("rows", int (List.length p.Dragon.Project.rows));
                ("cfg_blocks", int (List.length p.Dragon.Project.cfg));
                ("sources", int (List.length p.Dragon.Project.sources));
              ]
          | Error msg -> failwith ("dragon load: " ^ msg));
    (e, store)
  in
  let wall = now () -. t0 in
  let main_alloc = Gc.allocated_bytes () -. a0 in
  let hwm = vm_hwm_kb () in
  let st = result.Engine.e_stats in
  let phase_alloc =
    List.fold_left (fun acc p -> acc +. p.Engine.Stats.ph_alloc) 0.
      st.Engine.Stats.s_phases
  in
  (* engine phases report worker-domain allocation too; the rest of the
     pass runs on this domain only *)
  let alloc = main_alloc -. !engine_main_alloc +. phase_alloc in
  let solver =
    Linear.Solver_stats.diff (Linear.Solver_stats.snapshot ()) solver0
  in
  let live_words =
    if !tracing then begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    end
    else 0
  in
  let report_json (name, r) =
    ( name,
      match name with
      | "bounds" ->
        Obj
          [
            ("accesses", int (summary_int r "accesses"));
            ("safe", int (summary_int r "safe"));
            ("unsafe", int (summary_int r "unsafe"));
            ("maybe", int (summary_int r "maybe"));
          ]
      | "diffcheck" ->
        Obj
          [
            ("steps", int (summary_int r "steps"));
            ("oob_events", int (summary_int r "oob_events"));
            ("covered", int (summary_int r "covered"));
            ("uncovered", int (summary_int r "uncovered"));
            ("safe_faults", int (summary_int r "safe_faults"));
            ("ok", Str (summary_str r "ok"));
          ]
      | _ -> Obj [ ("rows", int (List.length r.Analyses.Report.r_rows)) ] )
  in
  (match trace with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc
      (to_string
         (Obj
            [
              ( "spans",
                List
                  (List.rev_map
                     (fun s ->
                       Obj
                         [
                           ("id", int s.sp_id);
                           ("parent", int s.sp_parent);
                           ("name", Str s.sp_name);
                           ("start_s", Num (s.sp_start -. t0));
                           ("end_s", Num (s.sp_end -. t0));
                           ("alloc_bytes", Num s.sp_alloc);
                         ])
                     !spans) );
            ]));
    close_out oc);
  print_endline
    (to_string
       (Obj
          [
            ("wall_s", Num wall);
            ("alloc_bytes", Num alloc);
            ("peak_rss_kb", int hwm);
            ("live_bytes_after_gc", int (live_words * (Sys.word_size / 8)));
            ( "engine",
              Obj
                [
                  ("pus", int st.Engine.Stats.s_pus);
                  ("collect_hits", int st.Engine.Stats.s_collect_hits);
                  ("collect_misses", int st.Engine.Stats.s_collect_misses);
                  ("summary_hits", int st.Engine.Stats.s_summary_hits);
                  ("summary_misses", int st.Engine.Stats.s_summary_misses);
                  ( "phases",
                    Obj
                      (List.map
                         (fun p ->
                           ( p.Engine.Stats.ph_name,
                             Obj
                               [
                                 ("wall_s", Num p.Engine.Stats.ph_wall);
                                 ("alloc_bytes", Num p.Engine.Stats.ph_alloc);
                               ] ))
                         st.Engine.Stats.s_phases) );
                ] );
            ( "store_entries",
              int (Option.fold ~none:0 ~some:Engine_store.entry_count store) );
            ( "solver",
              Obj
                [
                  ( "implies_queries",
                    int solver.Linear.Solver_stats.implies_queries );
                  ( "implies_memo_hits",
                    int solver.Linear.Solver_stats.implies_memo_hits );
                  ("fm_runs", int solver.Linear.Solver_stats.fm_runs);
                ] );
            ("reports", Obj (List.rev_map report_json !reports));
            ("dragon", Obj !dragon_info);
          ]))

(* ---- command line ----------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name args =
    match opt name args with
    | Some v -> v
    | None ->
      prerr_endline ("pass: missing " ^ name);
      exit 2
  in
  let flag name args = List.mem name args in
  match args with
  | "gen" :: rest ->
    gen
      ~seed:(int_of_string (req "--seed" rest))
      ~files:(int_of_string (req "--files" rest))
      ~out:(req "--out" rest)
  | "run" :: rest ->
    run ~src:(req "--src" rest) ~out:(req "--out" rest)
      ~jobs:(int_of_string (Option.value ~default:"1" (opt "--jobs" rest)))
      ~store_dir:(opt "--store" rest) ~clients:(flag "--clients" rest)
      ~dragon:(flag "--dragon" rest) ~trace:(opt "--trace" rest)
  | _ ->
    prerr_endline
      "usage: pass.exe gen --seed N --files F --out DIR\n\
      \       pass.exe run --src DIR --out DIR [--jobs N] [--store DIR] \
       [--clients] [--dragon] [--trace FILE]";
    exit 2
