(* The fast solver's contract: the packed/pruned/memoized query layer must
   be answer-identical to the pristine reference implementation kept in
   [Linear.System.Reference] — on random small systems (including ones with
   fractional coefficients, which exercise the reference fallback) and on
   every corpus end-to-end, where the emitted .rgn/.dgn/.cfg bytes must not
   move at all. *)

open Numeric
open Linear

let r = Rat.of_int
let x = Var.fresh ~name:"sx" Var.Ivar
let y = Var.fresh ~name:"sy" Var.Ivar
let z = Var.fresh ~name:"sz" Var.Ivar
let e_of_int = Expr.of_int

(* ---------- generators ---------- *)

let gen_coeff = QCheck2.Gen.int_range (-3) 3

(* constraints over x, y, z; a slice of them equalities, and a slice with a
   denominator-2 coefficient so packing fails and the reference fallback
   kicks in *)
let gen_constr =
  QCheck2.Gen.(
    let* a = gen_coeff and* b = gen_coeff and* c = gen_coeff in
    let* k = int_range (-8) 8 in
    let* halve = frequencyl [ (4, false); (1, true) ] in
    let* eq = frequencyl [ (5, false); (1, true) ] in
    let ca = if halve then Rat.make a 2 else r a in
    let e =
      Expr.add (Expr.monom ca x)
        (Expr.add (Expr.monom (r b) y)
           (Expr.add (Expr.monom (r c) z) (e_of_int k)))
    in
    return (Constr.make e (if eq then Constr.Eq else Constr.Le)))

let box =
  [
    Constr.ge (Expr.var x) (e_of_int (-6));
    Constr.le (Expr.var x) (e_of_int 6);
    Constr.ge (Expr.var y) (e_of_int (-6));
    Constr.le (Expr.var y) (e_of_int 6);
    Constr.ge (Expr.var z) (e_of_int (-6));
    Constr.le (Expr.var z) (e_of_int 6);
  ]

let gen_system =
  QCheck2.Gen.(
    map
      (fun cs -> System.meet (System.of_list cs) (System.of_list box))
      (list_size (int_range 0 5) gen_constr))

let print_system s = Format.asprintf "%a" System.pp s
let print_constr c = Format.asprintf "%a" Constr.pp c

(* run [f] once with the memo cache off and once with it on (cleared), and
   require both to agree with the reference answer *)
let both_cache_modes check =
  System.set_cache_enabled false;
  let off = check () in
  System.set_cache_enabled true;
  System.clear_cache ();
  let on = check () in
  off && on

let prop_feasible_agrees =
  QCheck2.Test.make ~name:"fast feasible = reference feasible" ~count:300
    gen_system ~print:print_system (fun s ->
      let expected = System.Reference.feasible s in
      both_cache_modes (fun () -> System.feasible s = expected))

let prop_implies_agrees =
  QCheck2.Test.make ~name:"fast implies = reference implies" ~count:300
    QCheck2.Gen.(pair gen_system gen_constr)
    ~print:QCheck2.Print.(pair print_system print_constr)
    (fun (s, c) ->
      let expected = System.Reference.implies s c in
      both_cache_modes (fun () -> System.implies s c = expected))

let prop_includes_agrees =
  QCheck2.Test.make ~name:"fast includes = reference includes" ~count:200
    QCheck2.Gen.(pair gen_system gen_system)
    ~print:QCheck2.Print.(pair print_system print_system)
    (fun (a, b) ->
      let expected = System.Reference.includes a b in
      both_cache_modes (fun () -> System.includes a b = expected))

let prop_disjoint_agrees =
  QCheck2.Test.make ~name:"fast disjoint = reference disjoint" ~count:200
    QCheck2.Gen.(pair gen_system gen_system)
    ~print:QCheck2.Print.(pair print_system print_system)
    (fun (a, b) ->
      let expected = System.Reference.disjoint a b in
      both_cache_modes (fun () -> System.disjoint a b = expected))

let rat_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Rat.equal a b
  | _ -> false

let prop_bounds_sample_agree =
  QCheck2.Test.make ~name:"bounds/sample = reference bounds/sample" ~count:200
    gen_system ~print:print_system (fun s ->
      let lo, hi = System.bounds x s
      and lo', hi' = System.Reference.bounds x s in
      rat_opt_equal lo lo' && rat_opt_equal hi hi'
      &&
      match (System.sample s, System.Reference.sample s) with
      | None, None -> true
      | Some a, Some b ->
        List.for_all (fun v -> Rat.equal (a v) (b v)) [ x; y; z ]
      | _ -> false)

(* ---------- end-to-end: corpora under reference mode ---------- *)

let corpus_files = Test_engine.corpus_files
let lower = Test_engine.lower
let render = Test_engine.render
let check_same_output = Test_engine.check_same_output

let test_corpora_identical () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let fast = render (Engine.analyze (lower files)) in
      System.set_reference_mode true;
      let reference =
        Fun.protect
          ~finally:(fun () -> System.set_reference_mode false)
          (fun () -> render (Engine.analyze (lower files)))
      in
      check_same_output (corpus ^ " reference vs fast") reference fast)
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* ---------- memoized query sequences against shared systems ----------

   The memos answer later queries from entries recorded by earlier ones,
   and an implies answer rests on feasible answers memoized underneath, so
   correctness depends on the whole query *sequence*, not single queries:
   ask every constraint twice against a shared feasible system and a
   shared infeasible one, and require each answer to equal the reference
   eliminator's.  (Clamped regions reuse these same systems through
   [Region.extent_check]; the corpus test below covers that end to end.) *)

let prop_memo_sequence =
  QCheck2.Test.make ~name:"memoized query sequences = reference" ~count:150
    QCheck2.Gen.(pair gen_system (list_size (int_range 1 12) gen_constr))
    ~print:QCheck2.Print.(pair print_system (list print_constr))
    (fun (s, cs) ->
      System.clear_cache ();
      (* [s] contains [box] (x <= 6), so demanding x >= 10 is infeasible *)
      let infeas = System.add (Constr.ge (Expr.var x) (e_of_int 10)) s in
      List.for_all
        (fun c ->
          let expected = System.Reference.implies s c in
          let expected_inf = System.Reference.implies infeas c in
          System.implies s c = expected
          && System.implies s c = expected
          && System.implies infeas c = expected_inf
          && System.implies infeas c = expected_inf
          && System.feasible s = System.Reference.feasible s
          && not (System.feasible infeas))
        cs)

(* the production core and reference mode, at jobs 1 and 4, must emit the
   same project bytes *)
let test_reference_jobs_identical () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let base = ref None in
      List.iter
        (fun (reference, mode) ->
          List.iter
            (fun jobs ->
              System.set_reference_mode reference;
              System.clear_cache ();
              let out =
                Fun.protect
                  ~finally:(fun () -> System.set_reference_mode false)
                  (fun () -> render (Engine.analyze ~jobs (lower files)))
              in
              let name =
                Printf.sprintf "%s %s jobs=%d vs baseline" corpus mode jobs
              in
              match !base with
              | None -> base := Some out
              | Some b -> check_same_output name b out)
            [ 1; 4 ])
        [ (false, "production"); (true, "reference") ])
    [ "lu"; "matrix" ]

(* [clear_cache] must flush the bounds/projection memos along with the
   query memos: two identical runs from a cleared state produce the same
   deterministic stats block and the same number of bounds hits — an entry
   carried over would turn a first computation into a hit *)
let test_no_cross_run_leak () =
  let files = corpus_files "matrix" in
  let run () =
    System.clear_cache ();
    Solver_stats.reset ();
    ignore (render (Engine.analyze (lower files)));
    let d = Solver_stats.snapshot () in
    (Format.asprintf "%a" Solver_stats.pp_deterministic d,
     d.Solver_stats.ctx_bound_hits)
  in
  let det1, hits1 = run () in
  let det2, hits2 = run () in
  let det3, hits3 = run () in
  Alcotest.(check string) "deterministic stats identical (run 2)" det1 det2;
  Alcotest.(check string) "deterministic stats identical (run 3)" det1 det3;
  Alcotest.(check int) "bounds memo not leaked (run 2)" hits1 hits2;
  Alcotest.(check int) "bounds memo not leaked (run 3)" hits1 hits3

(* ---------- the shared memos under contention ----------

   Four domains ask the same harvested NAS LU questions at once, each
   starting at a different offset.  Every answer must equal the reference
   eliminator's, and the deterministic counters must come out as in a
   serial run: one cache miss per distinct system, one fresh implies
   compute per distinct (system, constraint) pair — the domain that claims
   a key counts it, later arrivals count hits. *)

let lu_workload () =
  let r = Engine.analyze (lower (corpus_files "lu")) in
  let systems =
    List.concat_map
      (fun (_, info) ->
        List.map
          (fun (a : Ipa.Collect.access) ->
            a.Ipa.Collect.ac_region.Regions.Region.sys)
          info.Ipa.Collect.p_accesses)
      r.Ipa.Analyze.r_infos
  in
  let rec adjacent = function
    | a :: (b :: _ as tl) ->
      List.map (fun c -> (a, c)) (System.to_list b) @ adjacent tl
    | [] | [ _ ] -> []
  in
  (Array.of_list systems, Array.of_list (adjacent systems))

let distinct key xs =
  let h = Hashtbl.create 512 in
  Array.iter (fun x -> Hashtbl.replace h (key x) ()) xs;
  Hashtbl.length h

(* [query.(i)] answered by [domains] domains, domain [d] walking the array
   from offset [d * n / domains]; returns whether every answer matched and
   the counters the run moved *)
let contend ~domains query expected =
  System.clear_cache ();
  let s0 = Solver_stats.snapshot () in
  let n = Array.length expected in
  let worker d () =
    let ok = ref true in
    for k = 0 to n - 1 do
      let i = (k + (d * n / domains)) mod n in
      if query i <> expected.(i) then ok := false
    done;
    !ok
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  let ok = List.for_all Fun.id (List.map Domain.join spawned) in
  (ok, Solver_stats.diff (Solver_stats.snapshot ()) s0)

let test_shared_memo_contention () =
  let systems, pairs = lu_workload () in
  let feas_expected = Array.map System.Reference.feasible systems in
  let feas i = System.feasible systems.(i) in
  let ok, d = contend ~domains:4 feas feas_expected in
  Alcotest.(check bool) "feasible answers = reference" true ok;
  Alcotest.(check int) "feasible queries" (4 * Array.length systems)
    d.Solver_stats.queries;
  Alcotest.(check int) "one cache miss per distinct system"
    (distinct System.id systems) d.Solver_stats.cache_misses;
  let impl_expected =
    Array.map (fun (t, c) -> System.Reference.implies t c) pairs
  in
  let impl i =
    let t, c = pairs.(i) in
    System.implies t c
  in
  let ok, d = contend ~domains:4 impl impl_expected in
  Alcotest.(check bool) "implies answers = reference" true ok;
  let distinct_pairs =
    distinct (fun (t, c) -> (System.id t, Constr.id c)) pairs
  in
  Alcotest.(check int) "one fresh implies per distinct pair" distinct_pairs
    (d.Solver_stats.implies_queries - d.Solver_stats.implies_memo_hits);
  let _, serial = contend ~domains:1 impl impl_expected in
  Alcotest.(check int) "fresh implies as in a serial run"
    (serial.Solver_stats.implies_queries - serial.Solver_stats.implies_memo_hits)
    distinct_pairs;
  let det d = Format.asprintf "%a" Solver_stats.pp_deterministic d in
  (* the serial run asks each question once, the parallel one four times:
     everything but the query and hit totals must agree *)
  let per_key (d : Solver_stats.t) =
    { d with queries = 0; cache_hits = 0; implies_queries = 0;
      implies_memo_hits = 0 }
  in
  Alcotest.(check string) "implies counters as in a serial run"
    (det (per_key serial)) (det (per_key d));
  (* bounds and projections: every variable of every system, once per
     domain; a hit is every call but the first for its key *)
  let var_queries =
    Array.of_list
      (List.concat_map
         (fun s ->
           List.map (fun v -> (v, s)) (Var.Set.elements (System.vars s)))
         (Array.to_list systems))
  in
  let calls = 4 * Array.length var_queries in
  let keys = distinct (fun (v, s) -> (Var.id v, System.id s)) var_queries in
  let bounds_expected =
    Array.map (fun (v, s) -> System.Reference.bounds v s) var_queries
  in
  let bounds i =
    let v, s = var_queries.(i) in
    System.bounds v s
  in
  let ok, d = contend ~domains:4 bounds bounds_expected in
  Alcotest.(check bool) "bounds answers = reference" true ok;
  Alcotest.(check int) "bounds hits = calls - distinct keys" (calls - keys)
    d.Solver_stats.ctx_bound_hits;
  (* projecting one variable away is eliminating it *)
  let proj_expected =
    Array.map (fun (v, s) -> System.id (System.eliminate v s)) var_queries
  in
  let proj i =
    let v, s = var_queries.(i) in
    System.id (System.project_onto (Var.Set.remove v (System.vars s)) s)
  in
  let ok, d = contend ~domains:4 proj proj_expected in
  Alcotest.(check bool) "project_onto answers = reference" true ok;
  Alcotest.(check int) "proj hits = calls - distinct keys" (calls - keys)
    d.Solver_stats.ctx_proj_hits

(* A computation that raises leaves no key behind: [bounds] on this
   system overflows exact rational arithmetic every time, and a second
   domain asking after the first one raised must raise too, not wait for
   an answer that will never come. *)
let test_raising_key_released () =
  System.clear_cache ();
  let m = r (max_int / 3) in
  let le terms k =
    Constr.make
      (List.fold_left
         (fun e (c, v) -> Expr.add e (Expr.monom c v))
         (e_of_int k) terms)
      Constr.Le
  in
  let s =
    System.of_list
      [
        le [ (m, x); (m, y) ] 0;
        le [ (r 7, y); (Rat.neg m, x) ] 1;
        le [ (r 5, x); (Rat.neg m, y) ] 0;
      ]
  in
  let raises_in_a_domain () =
    let result = Atomic.make None in
    let d =
      Domain.spawn (fun () ->
          Atomic.set result
            (Some
               (match System.bounds x s with
               | _ -> false
               | exception Rat.Overflow -> true)))
    in
    let deadline = Unix.gettimeofday () +. 10. in
    let rec await () =
      match Atomic.get result with
      | Some raised ->
        Domain.join d;
        raised
      | None when Unix.gettimeofday () > deadline ->
        Alcotest.fail "System.bounds is still waiting on a released key"
      | None ->
        Unix.sleepf 0.001;
        await ()
    in
    await ()
  in
  Alcotest.(check bool) "first domain: Rat.Overflow" true
    (raises_in_a_domain ());
  Alcotest.(check bool) "second domain: Rat.Overflow, not blocked" true
    (raises_in_a_domain ())

let test_stats_move () =
  Solver_stats.reset ();
  System.clear_cache ();
  let s = System.of_list box in
  ignore (System.feasible s);
  ignore (System.feasible s);
  let d = Solver_stats.snapshot () in
  Alcotest.(check int) "two queries" 2 d.Solver_stats.queries;
  Alcotest.(check int) "one miss" 1 d.Solver_stats.cache_misses;
  Alcotest.(check int) "one hit" 1 d.Solver_stats.cache_hits

(* a degraded query bypasses the memo: the next exact query computes and
   settles the key, so the one after is answered from the memo *)
let test_degraded_then_exact () =
  Solver_stats.reset ();
  System.clear_cache ();
  let metrics = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      System.set_step_budget None;
      Obs.Metrics.set_enabled metrics;
      System.clear_cache ())
  @@ fun () ->
  let hits = Obs.Metrics.histogram "solver.feasible.hit.ns" in
  let s = System.of_list box in
  System.set_step_budget (Some 0);
  ignore (System.feasible s);
  System.set_step_budget None;
  let exact = System.Reference.feasible s in
  Alcotest.(check bool) "exact after the budget lifts" exact (System.feasible s);
  let h0 = Obs.Hist.count hits in
  Alcotest.(check bool) "exact from the memo" exact (System.feasible s);
  Alcotest.(check int) "answered as a memo hit" (h0 + 1) (Obs.Hist.count hits);
  let d = Solver_stats.snapshot () in
  Alcotest.(check int) "one miss: the first exact query computes" 1
    d.Solver_stats.cache_misses;
  Alcotest.(check int) "one hit" 1 d.Solver_stats.cache_hits

let suite =
  [
    QCheck_alcotest.to_alcotest prop_feasible_agrees;
    QCheck_alcotest.to_alcotest prop_implies_agrees;
    QCheck_alcotest.to_alcotest prop_includes_agrees;
    QCheck_alcotest.to_alcotest prop_disjoint_agrees;
    QCheck_alcotest.to_alcotest prop_bounds_sample_agree;
    QCheck_alcotest.to_alcotest prop_memo_sequence;
    Alcotest.test_case "corpora byte-identical (reference vs fast)" `Quick
      test_corpora_identical;
    Alcotest.test_case "corpora byte-identical (production vs reference x jobs 1/4)"
      `Quick test_reference_jobs_identical;
    Alcotest.test_case "clear_cache leaves no cross-run state" `Quick
      test_no_cross_run_leak;
    Alcotest.test_case "solver stats count queries and memo hits" `Quick
      test_stats_move;
    Alcotest.test_case "shared memos under 4-domain contention" `Quick
      test_shared_memo_contention;
    Alcotest.test_case "degraded query leaves the memo usable" `Quick
      test_degraded_then_exact;
    Alcotest.test_case "a raising computation releases its key" `Quick
      test_raising_key_released;
  ]
