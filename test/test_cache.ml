let mk_direct lines = Cache.create (Cache.direct_mapped ~line_bytes:16 ~lines)

let test_cold_miss_then_hit () =
  let c = mk_direct 4 in
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  Cache.access c ~write:false ~addr:4 ~bytes:4;
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 (Cache.misses s);
  Alcotest.(check int) "one hit" 1 (Cache.hits s)

let test_conflict_eviction () =
  let c = mk_direct 4 in
  (* addresses 0 and 64 map to the same set in a 4-line 16-byte cache *)
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  Cache.access c ~write:false ~addr:64 ~bytes:4;
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  let s = Cache.stats c in
  Alcotest.(check int) "three misses" 3 (Cache.misses s);
  Alcotest.(check int) "two evictions" 2 s.Cache.evictions

let test_two_way_avoids_conflict () =
  let c = Cache.create (Cache.two_way ~line_bytes:16 ~lines:4) in
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  Cache.access c ~write:false ~addr:32 ~bytes:4;  (* same set, other way *)
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  let s = Cache.stats c in
  Alcotest.(check int) "two misses only" 2 (Cache.misses s);
  Alcotest.(check int) "one hit" 1 (Cache.hits s)

let test_lru_order () =
  let c = Cache.create (Cache.two_way ~line_bytes:16 ~lines:4) in
  (* set 0 candidates: 0, 32, 64 *)
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  Cache.access c ~write:false ~addr:32 ~bytes:4;
  Cache.access c ~write:false ~addr:0 ~bytes:4;  (* 32 is now LRU *)
  Cache.access c ~write:false ~addr:64 ~bytes:4; (* evicts 32 *)
  Cache.access c ~write:false ~addr:0 ~bytes:4;  (* still resident *)
  let s = Cache.stats c in
  Alcotest.(check int) "misses" 3 (Cache.misses s);
  Alcotest.(check int) "hits" 2 (Cache.hits s)

let test_straddling_access () =
  let c = mk_direct 4 in
  (* 8 bytes starting at 12 touch lines 0 and 1 *)
  Cache.access c ~write:true ~addr:12 ~bytes:8;
  let s = Cache.stats c in
  Alcotest.(check int) "two line touches" 2 s.Cache.writes;
  Alcotest.(check int) "two write misses" 2 s.Cache.write_misses

let test_reset () =
  let c = mk_direct 4 in
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  Cache.reset c;
  let s = Cache.stats c in
  Alcotest.(check int) "no reads" 0 s.Cache.reads;
  Cache.access c ~write:false ~addr:0 ~bytes:4;
  Alcotest.(check int) "cold again" 1 (Cache.misses (Cache.stats c))

let test_validation () =
  Alcotest.check_raises "bad line size"
    (Invalid_argument "Cache.create: line_bytes must be a power of two")
    (fun () -> ignore (Cache.create { Cache.line_bytes = 24; sets = 4; ways = 1 }));
  Alcotest.check_raises "bad ways"
    (Invalid_argument "Cache.create: ways must be >= 1")
    (fun () -> ignore (Cache.create { Cache.line_bytes = 16; sets = 4; ways = 0 }))

let test_capacity () =
  Alcotest.(check int) "capacity" 2048
    (Cache.capacity_bytes (Cache.two_way ~line_bytes:32 ~lines:64))

(* property: miss count never exceeds access count; sequential sweep of N
   distinct lines gives exactly N misses on first pass, 0 on second when it
   fits *)
let prop_sweep =
  QCheck2.Test.make ~name:"sweep misses = distinct lines when resident"
    ~count:100
    QCheck2.Gen.(int_range 1 16)
    ~print:string_of_int
    (fun nlines ->
      let c = Cache.create (Cache.direct_mapped ~line_bytes:16 ~lines:16) in
      for i = 0 to nlines - 1 do
        Cache.access c ~write:false ~addr:(i * 16) ~bytes:4
      done;
      let first = Cache.misses (Cache.stats c) in
      for i = 0 to nlines - 1 do
        Cache.access c ~write:false ~addr:(i * 16) ~bytes:4
      done;
      let second = Cache.misses (Cache.stats c) in
      first = nlines && second = nlines)

let test_hierarchy () =
  let h =
    Cache.Hierarchy.create
      ~l1:(Cache.direct_mapped ~line_bytes:16 ~lines:2)
      ~l2:(Cache.two_way ~line_bytes:16 ~lines:8)
  in
  (* two addresses conflicting in L1 but coexisting in L2 *)
  Cache.Hierarchy.access h ~write:false ~addr:0 ~bytes:4;
  Cache.Hierarchy.access h ~write:false ~addr:32 ~bytes:4;
  Cache.Hierarchy.access h ~write:false ~addr:0 ~bytes:4;
  Cache.Hierarchy.access h ~write:false ~addr:32 ~bytes:4;
  let s = Cache.Hierarchy.stats h in
  Alcotest.(check int) "L1 misses all four" 4 (Cache.misses s.Cache.Hierarchy.l1);
  Alcotest.(check int) "L2 absorbs the refetches" 2
    (Cache.misses s.Cache.Hierarchy.l2);
  Alcotest.(check int) "L2 sees only L1 misses" 4
    (s.Cache.Hierarchy.l2.Cache.reads + s.Cache.Hierarchy.l2.Cache.writes);
  (* amat between the L2-hit and memory latencies *)
  let t = Cache.Hierarchy.amat s in
  Alcotest.(check bool) "amat sensible" true (t > 10.0 && t < 111.0);
  Cache.Hierarchy.reset h;
  let s = Cache.Hierarchy.stats h in
  Alcotest.(check int) "reset" 0
    (s.Cache.Hierarchy.l1.Cache.reads + s.Cache.Hierarchy.l2.Cache.reads)

(* ---- engine store safety under concurrent processes ------------------ *)

let temp_dir () =
  let d = Filename.temp_file "store" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* every file under [dir], recursively *)
let rec files_under dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then files_under p else [ p ])
    (Array.to_list (Sys.readdir dir))

let check_no_litter where dir =
  List.iter
    (fun p ->
      let base = Filename.basename p in
      let has sub =
        let n = String.length base and m = String.length sub in
        let rec go i = i + m <= n && (String.sub base i m = sub || go (i + 1)) in
        go 0
      in
      if has ".tmp." then
        Alcotest.failf "%s: unpublished temp file %s left behind" where p;
      if has ".quarantined" then
        Alcotest.failf "%s: quarantined entry %s" where p)
    (files_under dir)

(* a sibling build output of this test binary *)
let exe name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    (name ^ ".exe")

let drain_and_close ic =
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (Unix.close_process_in ic, Buffer.contents buf)

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_concurrent_writers () =
  if Sys.file_exists (exe "uhc") then begin
    let dir = temp_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let cache = Filename.concat dir "cache" in
    let spawn n =
      let out = Filename.concat dir ("o" ^ string_of_int n) in
      Unix.open_process_in
        (Printf.sprintf "%s --corpus gen-small --cache-dir %s -o %s -p gs 2>&1"
           (exe "uhc") (Filename.quote cache) (Filename.quote out))
    in
    (* two uhc processes race to publish the same content-addressed
       entries into one cache directory *)
    let p1 = spawn 1 in
    let p2 = spawn 2 in
    let st1, out1 = drain_and_close p1 in
    let st2, out2 = drain_and_close p2 in
    Alcotest.(check bool) ("writer 1 exits 0; its output:\n" ^ out1) true
      (st1 = Unix.WEXITED 0);
    Alcotest.(check bool) ("writer 2 exits 0; its output:\n" ^ out2) true
      (st2 = Unix.WEXITED 0);
    List.iter
      (fun f ->
        Alcotest.(check bool)
          (f ^ " identical across concurrent writers")
          true
          (read_file (Filename.concat (Filename.concat dir "o1") f)
          = read_file (Filename.concat (Filename.concat dir "o2") f)))
      [ "gs.rgn"; "gs.dgn"; "gs.cfg" ];
    check_no_litter "racing cache directory" cache
  end

let test_quarantine_then_heal () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = Test_engine.corpus_files "matrix" in
  let run () =
    Engine.run
      (Engine.config ~store:(Engine_store.create ~dir ()) ())
      (Test_engine.lower files)
  in
  let baseline = Test_engine.render (run ()).Engine.e_result in
  (* corrupt one collect entry in place *)
  let victim =
    match
      List.find_opt
        (fun p ->
          let b = Filename.basename p in
          String.length b > 2 && String.sub b 0 2 = "c-")
        (files_under dir)
    with
    | Some p -> p
    | None -> Alcotest.fail "no collect entry on disk"
  in
  let oc = open_out_bin victim in
  output_string oc "garbage, not a marshal image";
  close_out oc;
  let healed = run () in
  Test_engine.check_same_output "healed run" baseline
    (Test_engine.render healed.Engine.e_result);
  Alcotest.(check bool) "corrupt entry was quarantined" true
    (List.exists
       (fun (d : Fault.Diag.t) -> d.Fault.Diag.d_action = "quarantined")
       healed.Engine.e_diags);
  (* the entry was republished: a third run through a fresh handle is
     fully warm again *)
  let warm = run () in
  Alcotest.(check int) "healed store is fully warm"
    warm.Engine.e_stats.Engine.Stats.s_pus
    warm.Engine.e_stats.Engine.Stats.s_collect_hits;
  Test_engine.check_same_output "warm healed run" baseline
    (Test_engine.render warm.Engine.e_result)

let suite =
  [
    Alcotest.test_case "two-level hierarchy" `Quick test_hierarchy;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "conflict eviction" `Quick test_conflict_eviction;
    Alcotest.test_case "2-way avoids conflict" `Quick test_two_way_avoids_conflict;
    Alcotest.test_case "LRU order" `Quick test_lru_order;
    Alcotest.test_case "straddling access" `Quick test_straddling_access;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "config validation" `Quick test_validation;
    Alcotest.test_case "capacity" `Quick test_capacity;
    QCheck_alcotest.to_alcotest prop_sweep;
    Alcotest.test_case "concurrent writers converge, no litter" `Quick
      test_concurrent_writers;
    Alcotest.test_case "corrupt entry quarantines then heals" `Quick
      test_quarantine_then_heal;
  ]
