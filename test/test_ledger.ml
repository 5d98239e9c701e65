(* The run ledger end to end: a cached Pipeline.run appends a record that
   parses and carries the cache/verdict/per-PU sections; turning the
   ledger on or off changes no output byte at any --jobs setting; the
   regress gate's pass/breach logic (including the same-config baseline
   filter); explain pinning a re-collection on the edited callee via the
   recorded key1; and records in older shapes (topology block, solver-core
   field, summary keys) staying readable by every consumer. *)

let temp_dir () =
  let d = Filename.temp_file "ledger" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let metric run path = Dragon.Ledgerview.metric run.Dragon.Ledgerview.record path

let check_metric name run path expected =
  match metric run path with
  | Some v -> Alcotest.(check (float 0.)) name expected v
  | None -> Alcotest.failf "%s: metric %s missing" name path

(* ------------------------------------------------------------------ *)
(* A cached run writes one parseable record with the advertised shape *)

let test_record_written () =
  let cache = temp_dir () in
  let run () =
    (Pipeline.run
       (Pipeline.make ~corpus:"matrix" ~cache_dir:cache ~analyses:[ "bounds" ]
          ()))
      .Pipeline.r_code
  in
  Alcotest.(check int) "first run exits 0" 0 (run ());
  Alcotest.(check int) "second run exits 0" 0 (run ());
  match Dragon.Ledgerview.load ~cache_dir:cache with
  | Error e -> Alcotest.fail e
  | Ok runs -> (
    match runs with
    | [ r1; r2 ] ->
      Alcotest.(check bool)
        "run ids ascend" true
        (r1.Dragon.Ledgerview.run_id < r2.Dragon.Ledgerview.run_id);
      List.iter
        (fun r ->
          check_metric "schema_version" r "schema_version"
            (float_of_int Obs.Ledger.schema_version);
          check_metric "exit code recorded" r "exit_code" 0.;
          check_metric "no diagnostics" r "diagnostics" 0.;
          check_metric "bounds verdicts recorded" r "verdicts.bounds.safe" 8.)
        [ r1; r2 ];
      (* cold cache, then all hits: the incrementality story in numbers *)
      check_metric "first run misses" r1 "cache.collect_misses" 2.;
      check_metric "first run no hits" r1 "cache.collect_hits" 0.;
      check_metric "second run hits" r2 "cache.collect_hits" 2.;
      check_metric "second run no misses" r2 "cache.collect_misses" 0.;
      (* the summary tier is gone from the record *)
      Alcotest.(check bool)
        "no summary counters" true
        (metric r2 "cache.summary_hits" = None);
      (* identical inputs: identical config digests and content keys *)
      let digest r =
        Option.bind
          (Obs.Json.member "config_digest" r.Dragon.Ledgerview.record)
          Obs.Json.to_string
      in
      Alcotest.(check bool) "config digests equal" true (digest r1 = digest r2);
      let keys r =
        List.map
          (fun p ->
            Dragon.Ledgerview.
              (p.pu_name, p.pu_key1, p.pu_callees))
          (Dragon.Ledgerview.pus_of r)
      in
      Alcotest.(check bool) "two PU entries" true (List.length (keys r1) = 2);
      Alcotest.(check bool) "stable content keys" true (keys r1 = keys r2)
    | l -> Alcotest.failf "expected 2 ledger records, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* The ledger changes no output byte, at any --jobs setting *)

let project_files dir =
  List.map
    (fun ext -> read_file (Filename.concat dir ("project" ^ ext)))
    [ ".rgn"; ".dgn"; ".cfg" ]

let test_outputs_unchanged () =
  List.iter
    (fun corpus ->
      List.iter
        (fun jobs ->
          let run ?cache_dir ?ledger () =
            let out = temp_dir () in
            let code =
              (Pipeline.run
                 (Pipeline.make ~corpus ~out_dir:out ~jobs ?cache_dir ?ledger
                    ()))
                .Pipeline.r_code
            in
            Alcotest.(check int) (corpus ^ " exits 0") 0 code;
            project_files out
          in
          let plain = run () in
          let ledgered = run ~cache_dir:(temp_dir ()) () in
          let disabled = run ~cache_dir:(temp_dir ()) ~ledger:false () in
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs %d: ledger on is byte-identical" corpus
               jobs)
            true (plain = ledgered);
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs %d: ledger off is byte-identical" corpus
               jobs)
            true (plain = disabled))
        [ 1; 4 ])
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* ------------------------------------------------------------------ *)
(* The regress gate over synthetic records *)

let mk_run id fields =
  let raw = Printf.sprintf "{\"run_id\":\"%s\",%s}" id fields in
  match Obs.Json.parse raw with
  | Ok record -> { Dragon.Ledgerview.run_id = id; record }
  | Error e -> Alcotest.failf "bad synthetic record %s: %s" id e

let fields ~cfg ~queries =
  Printf.sprintf
    "\"config_digest\":\"%s\",\"verdicts\":{\"bounds\":{\"unsafe\":0,\"maybe\":0}},\"diagnostics\":0,\"solver\":{\"queries\":%d}"
    cfg queries

let regress ?baseline ~rules runs =
  match Dragon.Ledgerview.regress ?baseline ~rules runs with
  | Ok (report, breached) -> (report, breached)
  | Error e -> Alcotest.fail e

let test_regress_gate () =
  let r1 = mk_run "a" (fields ~cfg:"X" ~queries:50) in
  let r2 = mk_run "b" (fields ~cfg:"X" ~queries:50) in
  (* identical rerun, deterministic default rules: always passes *)
  let report, breached = regress ~rules:[] [ r1; r2 ] in
  Alcotest.(check bool) "identical rerun passes" false breached;
  Alcotest.(check bool) "report says OK" true (contains report "regress: OK");
  (* an injected breach: a negative threshold demands a decrease, so the
     identical rerun violates it (the verify.sh CI trick) *)
  let rule =
    match Dragon.Ledgerview.parse_rule "solver.queries=-50" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let report, breached = regress ~rules:[ rule ] [ r1; r2 ] in
  Alcotest.(check bool) "injected breach flags" true breached;
  Alcotest.(check bool)
    "report says REGRESSION" true
    (contains report "regress: REGRESSION");
  (* growth above an absolute-zero threshold breaches, growth within a
     generous percentage does not *)
  let grow = mk_run "c" (fields ~cfg:"X" ~queries:60) in
  let zero = { Dragon.Ledgerview.r_path = "solver.queries"; r_pct = 0. } in
  let loose = { Dragon.Ledgerview.r_path = "solver.queries"; r_pct = 50. } in
  Alcotest.(check bool)
    "growth breaches pct 0" true
    (snd (regress ~rules:[ zero ] [ r1; grow ]));
  Alcotest.(check bool)
    "growth within pct 50 passes" false
    (snd (regress ~rules:[ loose ] [ r1; grow ]));
  (* the baseline pool filters to the candidate's config digest: the
     same-config predecessor (50) gates, not the alien one (10) *)
  let alien = mk_run "b2" (fields ~cfg:"Y" ~queries:10) in
  Alcotest.(check bool)
    "same-config baseline chosen" false
    (snd (regress ~rules:[ zero ] [ r1; alien; r2 ]));
  (* malformed thresholds are rejected *)
  List.iter
    (fun s ->
      match Dragon.Ledgerview.parse_rule s with
      | Ok _ -> Alcotest.failf "threshold %S accepted" s
      | Error _ -> ())
    [ "no-equals"; "=5"; "path=" ]

(* ------------------------------------------------------------------ *)
(* explain: editing one callee names that callee by its key1 change *)

let caller_f =
  "      program driver\n\
  \      integer a(1:100)\n\
  \      call work(a)\n\
  \      end\n"

let callee_f n =
  Printf.sprintf
    "      subroutine work(a)\n\
    \      integer a(1:100)\n\
    \      integer i\n\
    \      do i = 1, %d\n\
    \        a(i) = i\n\
    \      end do\n\
    \      end subroutine\n"
    n

let test_explain_names_callee () =
  let src = temp_dir () and cache = temp_dir () in
  let main_path = Filename.concat src "driver.f" in
  let work_path = Filename.concat src "work.f" in
  write_file main_path caller_f;
  write_file work_path (callee_f 50);
  let run () =
    (Pipeline.run
       (Pipeline.make ~paths:[ main_path; work_path ] ~cache_dir:cache ()))
      .Pipeline.r_code
  in
  Alcotest.(check int) "cold run exits 0" 0 (run ());
  Alcotest.(check int) "warm run exits 0" 0 (run ());
  write_file work_path (callee_f 60);
  Alcotest.(check int) "edited run exits 0" 0 (run ());
  match Dragon.Ledgerview.load ~cache_dir:cache with
  | Error e -> Alcotest.fail e
  | Ok runs ->
    (* the caller's own body is untouched: its collection came from the
       cache, and the record no longer speaks of summary keys *)
    (match Dragon.Ledgerview.explain ~target:"driver" runs with
    | Error e -> Alcotest.fail e
    | Ok s ->
      Alcotest.(check bool)
        "caller served from cache" true
        (contains s "served from cache");
      Alcotest.(check bool) "no key2 branch" false (contains s "key2"));
    (* the callee itself: its own content changed, and the caller whose
       summary follows it is in its blast radius *)
    (match Dragon.Ledgerview.explain ~target:"work.f" runs with
    | Error e -> Alcotest.fail e
    | Ok s ->
      Alcotest.(check bool)
        "callee blames its own edit" true
        (contains s "its own content changed — key1");
      Alcotest.(check bool)
        "callee edit reaches the caller" true
        (contains s "blast radius: 1 transitive caller(s): driver"));
    (* an unknown target errors and lists what is recorded *)
    match Dragon.Ledgerview.explain ~target:"nosuch" runs with
    | Ok _ -> Alcotest.fail "unknown target accepted"
    | Error e -> Alcotest.(check bool) "error lists PUs" true (contains e "driver")

(* ------------------------------------------------------------------ *)
(* Records written before the topology block, the solver-core config
   field, the learned-core solver counters and the summary tier were
   dropped stay readable *)

let old_run_id = "18df376558cd2600-001784-0000"

(* a fig1 record as the multi-process, knob-carrying pipeline wrote it
   (metrics registry, solver counters and some config keys trimmed) *)
let old_record =
  String.concat ""
    [
      {|{"schema_version":1,"run_id":"|}; old_run_id;
      {|","ts":1792212085.156,"project":"project","corpus":"fig1","jobs":1,|};
      {|"solver_core":"learned","analyses":["bounds"],|};
      {|"config_digest":"b21e7c1fd5742179c3effbcc5f7c32a3",|};
      {|"corpus_digest":"2b912f95b5ab92082e1c0718c0c12b7f","exit_code":0,|};
      {|"wall_s":0.018456,"outputs":["lgo/project.rgn","lgo/project.dgn",|};
      {|"lgo/project.cfg"],"analyzed":true,"pus_analyzed":4,"phases":[|};
      {|{"name":"prepare","wall_s":0.000044,"alloc_bytes":1466},|};
      {|{"name":"collect","wall_s":0.000943,"alloc_bytes":18572},|};
      {|{"name":"summarize","wall_s":0.000493,"alloc_bytes":6267}],|};
      {|"cache":{"collect_hits":0,"collect_misses":4,"summary_hits":0,|};
      {|"summary_misses":4},"solver":{"queries":0,"implies_queries":0,|};
      {|"implies_memo_hits":0,"ctx_contexts":3,"ctx_bound_hits":18},|};
      {|"topology":{"spawned":2,"jobs":1,"tasks":4,"steals":1,|};
      {|"fallback_local":0,"busy_ns":[1200,900]},|};
      {|"verdicts":{"bounds":{"accesses":6,"safe":6,"unsafe":0,"maybe":0}},|};
      {|"diagnostics":0,"metrics":[],"pus":[|};
      {|{"name":"fig1","file":"fig1.f","key1":"bc5bbb4b42c34f9c26d0193925e5da32",|};
      {|"key2":"bf143ebfd6811dd58355e9839c6a199e","collect_hit":false,|};
      {|"summary_hit":false,"callees":["add"]},|};
      {|{"name":"add","file":"fig1.f","key1":"5873cc3317902505ea881de9a41203cb",|};
      {|"key2":"4104da9461443709ed079ac0fac2055b","collect_hit":false,|};
      {|"summary_hit":false,"callees":["p1","p2"]},|};
      {|{"name":"p1","file":"fig1.f","key1":"aeb936415e29c1844ef845aea9472999",|};
      {|"key2":"b194b6e2c05a69dde3fd366da5c4d1aa","collect_hit":false,|};
      {|"summary_hit":false,"callees":[]},|};
      {|{"name":"p2","file":"fig1.f","key1":"35b1fd95a24ff0cb3b84b6bb6d9a4e1c",|};
      {|"key2":"c5c2038ad10dd997c37e8ce41e11c6d3","collect_hit":false,|};
      {|"summary_hit":false,"callees":[]}]}|};
    ]

let counters_run_id = "18df44eeb872a100-030719-0000"

(* the same fig1 run as written while the solver still counted small-path
   runs, per-domain L1 hits and the learned core's cuts, eliminations and
   activity reorders (metrics registry and PU list trimmed) *)
let counters_record =
  String.concat ""
    [
      {|{"schema_version":1,"run_id":"|}; counters_run_id;
      {|","ts":1792216410.031,"project":"project","corpus":"fig1","jobs":1,|};
      {|"analyses":["bounds"],"config_digest":"b21e7c1fd5742179c3effbcc5f7c32a3",|};
      {|"corpus_digest":"2b912f95b5ab92082e1c0718c0c12b7f","exit_code":0,|};
      {|"wall_s":0.016204,"outputs":["lgo/project.rgn","lgo/project.dgn",|};
      {|"lgo/project.cfg"],"analyzed":true,"pus_analyzed":4,"phases":[|};
      {|{"name":"prepare","wall_s":0.000041,"alloc_bytes":1466},|};
      {|{"name":"collect","wall_s":0.000902,"alloc_bytes":18572},|};
      {|{"name":"summarize","wall_s":0.000471,"alloc_bytes":6267}],|};
      {|"cache":{"collect_hits":0,"collect_misses":4,"summary_hits":0,|};
      {|"summary_misses":4},"solver":{"queries":0,"cache_hits":0,|};
      {|"cache_misses":0,"box_refutations":0,"syntactic_hits":0,"fm_runs":0,|};
      {|"fm_rows_built":0,"fm_rows_pruned":0,"tighten_fallbacks":0,|};
      {|"overflow_fallbacks":0,"reference_runs":0,"small_runs":0,|};
      {|"wall_fast_ns":0,"wall_reference_ns":0,"implies_queries":0,|};
      {|"implies_memo_hits":0,"implies_wall_ns":0,"implies_l1_hits":0,|};
      {|"ctx_contexts":3,"ctx_cut_hits":0,"ctx_bound_hits":18,"ctx_proj_hits":0,|};
      {|"ctx_elims":0,"ctx_activity_reorders":0},|};
      {|"verdicts":{"bounds":{"accesses":6,"safe":6,"unsafe":0,"maybe":0}},|};
      {|"diagnostics":0,"metrics":[],"pus":[|};
      {|{"name":"fig1","file":"fig1.f","key1":"bc5bbb4b42c34f9c26d0193925e5da32",|};
      {|"key2":"bf143ebfd6811dd58355e9839c6a199e","collect_hit":false,|};
      {|"summary_hit":false,"callees":["add"]},|};
      {|{"name":"add","file":"fig1.f","key1":"5873cc3317902505ea881de9a41203cb",|};
      {|"key2":"4104da9461443709ed079ac0fac2055b","collect_hit":false,|};
      {|"summary_hit":false,"callees":["p1","p2"]}]}|};
    ]

let parent_run_id = "18df80e455d8fb00-018486-0000"

(* a fig1 run as written while the store still cached summaries: the
   cache section counts summary hits and misses, and every PU entry
   carries its Merkle summary key and summary-hit flag (metrics registry
   and most solver counters trimmed) *)
let parent_record =
  String.concat ""
    [
      {|{"schema_version":1,"run_id":"|}; parent_run_id;
      {|","ts":1792292894.918,"project":"project","corpus":"fig1","jobs":1,|};
      {|"analyses":["bounds"],"config_digest":"15e95d7247f66feebf2a836dd4a50c2f",|};
      {|"corpus_digest":"2b912f95b5ab92082e1c0718c0c12b7f","exit_code":0,|};
      {|"wall_s":0.019946,"outputs":["o/project.rgn","o/project.dgn",|};
      {|"o/project.cfg"],"analyzed":true,"pus_analyzed":4,"phases":[|};
      {|{"name":"prepare","wall_s":6.5e-05,"alloc_bytes":1412},|};
      {|{"name":"digest","wall_s":9.6e-05,"alloc_bytes":70929},|};
      {|{"name":"collect","wall_s":0.000677,"alloc_bytes":18488},|};
      {|{"name":"summarize","wall_s":0.000432,"alloc_bytes":6243},|};
      {|{"name":"assemble","wall_s":5.6e-05,"alloc_bytes":1858}],|};
      {|"cache":{"collect_hits":0,"collect_misses":4,"summary_hits":0,|};
      {|"summary_misses":4},"solver":{"queries":0,"implies_queries":0,|};
      {|"implies_memo_hits":0,"ctx_bound_hits":18,"ctx_proj_hits":0},|};
      {|"verdicts":{"bounds":{"accesses":6,"safe":6,"unsafe":0,"maybe":0}},|};
      {|"diagnostics":0,"metrics":[],"pus":[|};
      {|{"name":"fig1","file":"fig1.f","key1":"bc5bbb4b42c34f9c26d0193925e5da32",|};
      {|"key2":"bf143ebfd6811dd58355e9839c6a199e","collect_hit":false,|};
      {|"summary_hit":false,"callees":["add"]},|};
      {|{"name":"add","file":"fig1.f","key1":"5873cc3317902505ea881de9a41203cb",|};
      {|"key2":"4104da9461443709ed079ac0fac2055b","collect_hit":false,|};
      {|"summary_hit":false,"callees":["p1","p2"]},|};
      {|{"name":"p1","file":"fig1.f","key1":"aeb936415e29c1844ef845aea9472999",|};
      {|"key2":"b194b6e2c05a69dde3fd366da5c4d1aa","collect_hit":false,|};
      {|"summary_hit":false,"callees":[]},|};
      {|{"name":"p2","file":"fig1.f","key1":"35b1fd95a24ff0cb3b84b6bb6d9a4e1c",|};
      {|"key2":"c5c2038ad10dd997c37e8ce41e11c6d3","collect_hit":false,|};
      {|"summary_hit":false,"callees":[]}]}|};
    ]

(* sibling build outputs of this test binary *)
let exe dir name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ dir))
    (name ^ ".exe")

(* exit code and combined output of a shell command *)
let run_cmd cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1
  in
  (code, Buffer.contents buf)

(* each old record gets its own cache dir, so a current run over the same
   input lands right after it and [dragon explain] compares against it *)
let test_old_record_accepted () =
  let expect_ok what cmd needle =
    let code, out = run_cmd cmd in
    if code <> 0 then Alcotest.failf "%s exited %d:\n%s" what code out;
    if not (contains out needle) then
      Alcotest.failf "%s output lacks %S:\n%s" what needle out
  in
  let bench = exe "bench" "main" and dragon = exe "bin" "dragon" in
  let q = Filename.quote in
  List.iter
    (fun (run_id, record) ->
      let cache = temp_dir () in
      let path = Obs.Ledger.append ~cache_dir:cache ~run_id record in
      Alcotest.(check int) "current run exits 0" 0
        (Pipeline.run
           (Pipeline.make ~corpus:"fig1" ~cache_dir:cache
              ~analyses:[ "bounds" ] ()))
          .Pipeline.r_code;
      expect_ok "bench check-json"
        (Printf.sprintf "%s check-json %s" bench (q path))
        "OK (ledger, 1 record(s))";
      expect_ok "dragon history"
        (Printf.sprintf "%s history --cache-dir %s wall_s verdicts.bounds.safe"
           dragon (q cache))
        "verdicts.bounds.safe";
      expect_ok "dragon regress"
        (Printf.sprintf "%s regress --cache-dir %s" dragon (q cache))
        "regress: OK";
      expect_ok "dragon explain"
        (Printf.sprintf "%s explain --cache-dir %s add" dragon (q cache))
        ("vs previous " ^ run_id))
    [
      (old_run_id, old_record);
      (counters_run_id, counters_record);
      (parent_run_id, parent_record);
    ]

let suite =
  [
    Alcotest.test_case "record written and parses" `Quick test_record_written;
    Alcotest.test_case "outputs unchanged by ledger" `Slow
      test_outputs_unchanged;
    Alcotest.test_case "regress gate logic" `Quick test_regress_gate;
    Alcotest.test_case "explain names the edited callee" `Quick
      test_explain_names_callee;
    Alcotest.test_case "pre-removal records still accepted" `Quick
      test_old_record_accepted;
  ]
