(* The hash-consed region algebra: interning soundness (equal ids iff
   structurally equal after normalization), and the n-way union and the
   bucketed summary builder against their reference folds — on random
   regions and on the real region buckets of every corpus. *)

open QCheck2

let same_region (a : Regions.Region.t) (b : Regions.Region.t) =
  a.Regions.Region.ndims = b.Regions.Region.ndims
  && Linear.System.equal a.Regions.Region.sys b.Regions.Region.sys
  && Regions.Region.equal_display a b
  && a.Regions.Region.exact = b.Regions.Region.exact

(* ---- generators ------------------------------------------------------ *)

let d0 = Linear.Var.subscript 0
let d1 = Linear.Var.subscript 1

(* constraints over the two subscript dimensions, built from the public
   constructors only (so every term goes through the interner) *)
let gen_constr =
  Gen.(
    let* c = int_range (-10) 10 in
    let* dk = oneofl [ d0; d1 ] in
    oneofl
      [
        Linear.Constr.ge (Linear.Expr.var dk) (Linear.Expr.of_int c);
        Linear.Constr.le (Linear.Expr.var dk) (Linear.Expr.of_int c);
        Linear.Constr.le (Linear.Expr.var d0)
          (Linear.Expr.add (Linear.Expr.var d1) (Linear.Expr.of_int c));
        Linear.Constr.eq (Linear.Expr.var dk) (Linear.Expr.of_int c);
      ])

let gen_constrs = Gen.(list_size (int_range 1 4) gen_constr)

let gen_region =
  Gen.(
    let* cs = gen_constrs in
    let* exact = bool in
    return
      (Regions.Region.make ~ndims:2
         ~sys:(Linear.System.of_list cs)
         ~strides:[ Regions.Region.Sconst 1; Regions.Region.Sconst 1 ]
         ~exact))

(* ---- interning soundness --------------------------------------------- *)

let test_sharing () =
  let open Linear in
  let e1 = Expr.add (Expr.add (Expr.var d0) (Expr.var d1)) (Expr.of_int 3) in
  let e2 = Expr.add (Expr.var d0) (Expr.add (Expr.var d1) (Expr.of_int 3)) in
  Alcotest.(check bool) "assoc-equal exprs share one node" true (e1 == e2);
  Alcotest.(check int) "same id" (Expr.id e1) (Expr.id e2);
  let c1 = Constr.le e1 (Expr.of_int 7) in
  let c2 = Constr.le e2 (Expr.of_int 7) in
  Alcotest.(check bool) "normal-equal constrs share one node" true (c1 == c2);
  let s1 = System.of_list [ c1; Constr.ge (Expr.var d0) (Expr.of_int 0) ] in
  let s2 = System.of_list [ Constr.ge (Expr.var d0) (Expr.of_int 0); c2 ] in
  Alcotest.(check bool) "permuted systems share one node" true (s1 == s2);
  Alcotest.(check int) "same system id" (System.id s1) (System.id s2);
  Alcotest.(check bool) "distinct contents, distinct ids" false
    (System.equal s1 System.top)

let prop_intern_sound =
  Test.make ~name:"equal ids iff structurally equal (expr/constr/system)"
    ~count:300
    Gen.(pair gen_constrs gen_constrs)
    (fun (cs1, cs2) ->
      let s1 = Linear.System.of_list cs1 in
      let s2 = Linear.System.of_list cs2 in
      let structural =
        List.equal Linear.Constr.equal (Linear.System.to_list s1)
          (Linear.System.to_list s2)
      in
      Linear.System.equal s1 s2 = structural
      && (Linear.System.id s1 = Linear.System.id s2) = structural
      && List.for_all
           (fun c1 ->
             List.for_all
               (fun c2 ->
                 Linear.Constr.equal c1 c2 = (Linear.Constr.compare c1 c2 = 0)
                 && Linear.Expr.equal (Linear.Constr.expr c1)
                      (Linear.Constr.expr c2)
                    = (Linear.Expr.compare (Linear.Constr.expr c1)
                         (Linear.Constr.expr c2)
                      = 0))
               cs2)
           cs1)

(* ---- differential: n-way union vs reference fold --------------------- *)

let reference_union rs =
  List.fold_left Regions.Region.Reference.union_approx (List.hd rs) (List.tl rs)

let same_summary (a : Ipa.Summary.t) (b : Ipa.Summary.t) =
  List.length a = List.length b
  && List.for_all2
       (fun (a : Ipa.Summary.entry) (b : Ipa.Summary.entry) ->
         a.Ipa.Summary.e_key = b.Ipa.Summary.e_key
         && Regions.Mode.equal a.Ipa.Summary.e_mode b.Ipa.Summary.e_mode
         && a.Ipa.Summary.e_count = b.Ipa.Summary.e_count
         && same_region a.Ipa.Summary.e_region b.Ipa.Summary.e_region)
       a b

let prop_union_many =
  Test.make ~name:"union_many = reference fold of union_approx" ~count:200
    Gen.(list_size (int_range 1 6) gen_region)
    (fun rs -> same_region (Regions.Region.union_many rs) (reference_union rs))

(* ---- differential: bucketed summary builder vs add_entry fold -------- *)

let prop_builder =
  (* a small region pool + many picks exercises both the display-equal
     merge and the per-slot cap collapse of Summary.add_entry *)
  Test.make ~name:"Summary.add_entries = fold of add_entry" ~count:100
    Gen.(
      pair
        (list_size (return 12) gen_region)
        (list_size (int_range 0 40)
           (triple (int_range 0 3) bool (int_range 0 11))))
    (fun (pool, picks) ->
      let pool = Array.of_list pool in
      let entries =
        List.map
          (fun (k, use, ri) ->
            {
              Ipa.Summary.e_key =
                (if k < 2 then Ipa.Summary.Kglobal k
                 else Ipa.Summary.Kformal (k - 2));
              e_mode = (if use then Regions.Mode.USE else Regions.Mode.DEF);
              e_region = pool.(ri);
              e_count = 1 + (ri mod 3);
            })
          picks
      in
      same_summary
        (Ipa.Summary.add_entries [] entries)
        (List.fold_left Ipa.Summary.add_entry [] entries))

(* ---- corpora: the real join buckets against the reference folds ------ *)

(* Every (procedure, array, mode) bucket of collected access regions, in
   first-seen order: the groups the summary layer joins. *)
let buckets_of corpus =
  let res =
    Engine.analyze (Test_engine.lower (Test_engine.corpus_files corpus))
  in
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (pu, (info : Ipa.Collect.pu_info)) ->
      List.iter
        (fun (a : Ipa.Collect.access) ->
          let k = (pu, a.Ipa.Collect.ac_st, a.Ipa.Collect.ac_mode) in
          match Hashtbl.find_opt groups k with
          | None ->
            order := k :: !order;
            Hashtbl.replace groups k [ a.Ipa.Collect.ac_region ]
          | Some rs -> Hashtbl.replace groups k (a.Ipa.Collect.ac_region :: rs))
        info.Ipa.Collect.p_accesses)
    res.Ipa.Analyze.r_infos;
  List.rev_map
    (fun ((_, st, mode) as k) -> (st, mode, List.rev (Hashtbl.find groups k)))
    !order

let test_corpus_differential () =
  List.iter
    (fun corpus ->
      let buckets = buckets_of corpus in
      Alcotest.(check bool) (corpus ^ " has multi-region buckets") true
        (List.exists (fun (_, _, rs) -> List.length rs > 1) buckets);
      List.iteri
        (fun i (st, mode, rs) ->
          let where = Printf.sprintf "%s bucket %d" corpus i in
          Alcotest.(check bool) (where ^ ": union_many = reference fold") true
            (same_region (Regions.Region.union_many rs) (reference_union rs));
          let entries =
            List.map
              (fun r ->
                {
                  Ipa.Summary.e_key = Ipa.Summary.Kglobal st;
                  e_mode = mode;
                  e_region = r;
                  e_count = 1;
                })
              rs
          in
          Alcotest.(check bool) (where ^ ": add_entries = add_entry fold") true
            (same_summary
               (Ipa.Summary.add_entries [] entries)
               (List.fold_left Ipa.Summary.add_entry [] entries)))
        buckets)
    [ "lu"; "matrix"; "fig1"; "stride" ]

let suite =
  [
    Alcotest.test_case "interned terms are physically shared" `Quick
      test_sharing;
    QCheck_alcotest.to_alcotest prop_intern_sound;
    QCheck_alcotest.to_alcotest prop_union_many;
    QCheck_alcotest.to_alcotest prop_builder;
    Alcotest.test_case "corpus join buckets = reference folds" `Quick
      test_corpus_differential;
  ]
