(* The engine's contract: parallel and cached runs are byte-identical to the
   serial reference path, warm caches hit for every PU, an edit re-collects
   exactly the changed PU, and the store holds collection results only —
   summaries are recomputed every run, so the callers of an edited PU see
   its new summary. *)

let corpus_files = function
  | "lu" -> Corpus.Nas_lu.files ()
  | "matrix" -> [ Corpus.Small.matrix_c ]
  | "fig1" -> [ Corpus.Small.fig1_f ]
  | "stride" -> [ Corpus.Small.stride_f ]
  | "gen-small" -> Corpus.Gen.(generate default)
  | other -> Alcotest.failf "unknown corpus %s" other

let lower files = Whirl.Lower.lower (Lang.Frontend.load ~files)

(* the exact .rgn/.dgn/.cfg file contents uhc would write *)
let render (r : Ipa.Analyze.result) =
  ( Rgnfile.Files.write_rgn r.Ipa.Analyze.r_rows,
    Rgnfile.Files.write_dgn r.Ipa.Analyze.r_dgn,
    Rgnfile.Files.write_cfg (Ipa.Analyze.cfg_blocks r) )

let check_same_output name (rgn_a, dgn_a, cfg_a) (rgn_b, dgn_b, cfg_b) =
  Alcotest.(check bool) (name ^ " .rgn byte-identical") true (rgn_a = rgn_b);
  Alcotest.(check bool) (name ^ " .dgn byte-identical") true (dgn_a = dgn_b);
  Alcotest.(check bool) (name ^ " .cfg byte-identical") true (cfg_a = cfg_b)

let test_parallel_identical () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let serial = render (Engine.analyze (lower files)) in
      let par =
        Engine.run (Engine.config ~jobs:4 ()) (lower files)
      in
      Alcotest.(check int)
        (corpus ^ " parallel jobs") 4 par.Engine.e_stats.Engine.Stats.s_jobs;
      check_same_output (corpus ^ " parallel") serial
        (render par.Engine.e_result);
      (* warm in-memory cache, fresh lowering: everything re-interned *)
      let store = Engine_store.in_memory () in
      let cfg = Engine.config ~jobs:4 ~store () in
      let _cold = Engine.run cfg (lower files) in
      let warm = Engine.run cfg (lower files) in
      check_same_output (corpus ^ " warm") serial
        (render warm.Engine.e_result))
    [ "lu"; "matrix"; "fig1"; "stride" ]

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "engine_cache_%d_%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

let test_disk_cache_full_hits () =
  let files = corpus_files "lu" in
  let dir = fresh_dir () in
  let cold =
    Engine.run
      (Engine.config ~jobs:4 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let st = cold.Engine.e_stats in
  Alcotest.(check int) "cold collect hits" 0 st.Engine.Stats.s_collect_hits;
  (* a fresh store over the same directory simulates a second tool
     invocation: everything must come back from disk *)
  let warm =
    Engine.run
      (Engine.config ~jobs:4 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let wt = warm.Engine.e_stats in
  let n = wt.Engine.Stats.s_pus in
  Alcotest.(check bool) "has PUs" true (n > 0);
  Alcotest.(check int) "warm collect hits" n wt.Engine.Stats.s_collect_hits;
  Alcotest.(check int) "warm collect misses" 0 wt.Engine.Stats.s_collect_misses;
  (* summaries are never cached: the fields read as all misses *)
  Alcotest.(check int) "warm summary hits" 0 wt.Engine.Stats.s_summary_hits;
  Alcotest.(check int) "warm summary misses" n wt.Engine.Stats.s_summary_misses;
  check_same_output "disk warm" (render cold.Engine.e_result)
    (render warm.Engine.e_result)

(* main calls f and h; f calls g: a chain plus an unrelated leaf *)
let chain_src ~g_bound ~f_bound =
  ( "chain.f",
    Printf.sprintf
      {|      program main
      integer, dimension :: a(1:100)
      call f(a)
      call h(a)
      end

      subroutine f(a)
      integer, dimension :: a(1:100)
      integer i
      do i = 1, %d
        a(i) = i
      end do
      call g(a)
      end subroutine

      subroutine g(a)
      integer, dimension :: a(1:100)
      integer i
      do i = 1, %d
        a(i) = a(i) + 1
      end do
      end subroutine

      subroutine h(a)
      integer, dimension :: a(1:100)
      integer i
      do i = 1, 5
        a(i) = 0
      end do
      end subroutine
|}
      f_bound g_bound )

let run_chain store src =
  Engine.run (Engine.config ~jobs:2 ~store ()) (lower [ src ])

let test_invalidation_callers_only () =
  (* edit g (a leaf) or f (in the middle of the chain): only the edited PU
     re-collects, and recomputing every summary from the cached collection
     results carries the edit up to its transitive callers *)
  List.iter
    (fun (what, g_bound, f_bound) ->
      let store = Engine_store.in_memory () in
      let _ = run_chain store (chain_src ~g_bound:10 ~f_bound:20) in
      let r = run_chain store (chain_src ~g_bound ~f_bound) in
      let st = r.Engine.e_stats in
      Alcotest.(check int) (what ^ ": PUs") 4 st.Engine.Stats.s_pus;
      Alcotest.(check int) (what ^ ": 1 collect miss") 1
        st.Engine.Stats.s_collect_misses;
      Alcotest.(check int) (what ^ ": 3 collect hits") 3
        st.Engine.Stats.s_collect_hits;
      (* the incremental result equals a from-scratch analysis *)
      let fresh = Engine.analyze (lower [ chain_src ~g_bound ~f_bound ]) in
      check_same_output
        (what ^ " equals a fresh analysis")
        (render fresh) (render r.Engine.e_result))
    [ ("edit g", 30, 20); ("edit f", 10, 40) ]

let test_unchanged_rerun_all_hits () =
  let store = Engine_store.in_memory () in
  let src = chain_src ~g_bound:10 ~f_bound:20 in
  let _ = run_chain store src in
  let r = run_chain store src in
  let st = r.Engine.e_stats in
  Alcotest.(check int) "collect misses" 0 st.Engine.Stats.s_collect_misses;
  Alcotest.(check int) "collect hits" 4 st.Engine.Stats.s_collect_hits

(* a filled on-disk store holds one collect entry per PU and nothing else *)
let test_store_collect_only () =
  let files = corpus_files "fig1" in
  let dir = fresh_dir () in
  let r =
    Engine.run
      (Engine.config ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let entries =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun schema ->
           Array.to_list (Sys.readdir (Filename.concat dir schema)))
  in
  Alcotest.(check int)
    "one entry per PU" r.Engine.e_stats.Engine.Stats.s_pus
    (List.length entries);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e ^ " is a c-*.bin collect entry")
        true
        (String.length e > 6
        && String.sub e 0 2 = "c-"
        && Filename.check_suffix e ".bin"))
    entries

let suite =
  [
    Alcotest.test_case "parallel and warm byte-identical" `Slow
      test_parallel_identical;
    Alcotest.test_case "disk cache: second invocation all hits" `Slow
      test_disk_cache_full_hits;
    Alcotest.test_case "invalidation: changed PU + transitive callers" `Quick
      test_invalidation_callers_only;
    Alcotest.test_case "unchanged rerun: all hits" `Quick
      test_unchanged_rerun_all_hits;
    Alcotest.test_case "disk store holds collect entries only" `Quick
      test_store_collect_only;
  ]
