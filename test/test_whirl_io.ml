(* WHIRL file (.B analog) round-trips: trees, symbol tables, layout
   addresses, and — the real criterion — identical analysis results. *)

let roundtrip files =
  let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  Whirl.Layout.assign m;
  let text = Whirl.Whirl_io.write m in
  match Whirl.Whirl_io.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m' -> (m, m')

let test_tree_roundtrip () =
  let m, m' = roundtrip [ Corpus.Small.fig1_f ] in
  List.iter2
    (fun pu pu' ->
      Alcotest.(check string) "pu name" pu.Whirl.Ir.pu_name pu'.Whirl.Ir.pu_name;
      Alcotest.(check bool)
        (pu.Whirl.Ir.pu_name ^ " tree identical")
        true
        (Whirl.Wn.equal_tree pu.Whirl.Ir.pu_body pu'.Whirl.Ir.pu_body);
      Alcotest.(check (list int)) "formals" pu.Whirl.Ir.pu_formals
        pu'.Whirl.Ir.pu_formals)
    m.Whirl.Ir.m_pus m'.Whirl.Ir.m_pus

let test_symtab_roundtrip () =
  let m, m' = roundtrip [ Corpus.Small.fig1_f ] in
  Alcotest.(check int) "global st count"
    (Whirl.Symtab.st_count m.Whirl.Ir.m_global)
    (Whirl.Symtab.st_count m'.Whirl.Ir.m_global);
  Whirl.Symtab.iter_st m.Whirl.Ir.m_global (fun i e ->
      let e' = Whirl.Symtab.st m'.Whirl.Ir.m_global i in
      Alcotest.(check string) "name" e.Whirl.Symtab.st_name e'.Whirl.Symtab.st_name;
      Alcotest.(check int) "ty idx" e.Whirl.Symtab.st_ty e'.Whirl.Symtab.st_ty;
      Alcotest.(check int) "mem loc" e.Whirl.Symtab.st_mem_loc
        e'.Whirl.Symtab.st_mem_loc;
      Alcotest.(check bool) "sclass" true
        (e.Whirl.Symtab.st_sclass = e'.Whirl.Symtab.st_sclass))

let test_analysis_equal_after_reload () =
  let m, m' = roundtrip (Corpus.Nas_lu.files ()) in
  let rows mm =
    (Engine.analyze mm).Ipa.Analyze.r_rows |> List.map Rgnfile.Row.to_fields
  in
  Alcotest.(check bool) "identical .rgn rows from reloaded WHIRL" true
    (rows m = rows m')

let test_interp_equal_after_reload () =
  let m, m' = roundtrip [ Corpus.Small.matrix_c ] in
  let o = Interp.run m and o' = Interp.run m' in
  Alcotest.(check string) "same output" o.Interp.out_text o'.Interp.out_text;
  Alcotest.(check int) "same step count" o.Interp.out_steps o'.Interp.out_steps

let test_floats_bit_exact () =
  let src =
    ( "t.f",
      {|      program t
      double precision x
      x = 0.1d0 + 1.0d-300
      print *, x
      end
|} )
  in
  let m, m' = roundtrip [ src ] in
  let o = Interp.run m and o' = Interp.run m' in
  Alcotest.(check string) "hex-float round trip preserves values"
    o.Interp.out_text o'.Interp.out_text

let test_parse_errors () =
  (match Whirl.Whirl_io.parse "garbage\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Whirl.Whirl_io.parse "whirl 1\nglobal\nendglobal\npu x 0 \"f\" \"f.o\" fortran 1 1 subroutine\nformals\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated pu accepted"

(* [find_pu] answers from an index built with the module, so after every
   rewrite it must return the PU that is physically in [m_pus] -- the first
   of its name, as a scan of [m_pus] does -- and never a stale one *)
let test_find_pu_index () =
  let scan m name =
    List.find_opt (fun p -> p.Whirl.Ir.pu_name = name) m.Whirl.Ir.m_pus
  in
  let check what m =
    List.iter
      (fun p ->
        let name = p.Whirl.Ir.pu_name in
        match (Whirl.Ir.find_pu m name, scan m name) with
        | Some a, Some b ->
          Alcotest.(check bool) (what ^ ": " ^ name) true (a == b)
        | _ -> Alcotest.failf "%s: %s not found" what name)
      m.Whirl.Ir.m_pus;
    Alcotest.(check bool) (what ^ ": unknown name") true
      (Whirl.Ir.find_pu m "no_such_pu" = None)
  in
  let replaced m m' =
    List.exists2 (fun p p' -> p != p') m.Whirl.Ir.m_pus m'.Whirl.Ir.m_pus
  in
  let m =
    Whirl.Lower.lower (Lang.Frontend.load ~files:Corpus.Gen.(generate default))
  in
  check "lowered" m;
  let m1, _ = Wopt.Const_prop.run m in
  Alcotest.(check bool) "const_prop replaced PUs" true (replaced m m1);
  check "const_prop" m1;
  let m2, _ = Wopt.Dce.run m1 in
  Alcotest.(check bool) "dce replaced PUs" true (replaced m1 m2);
  check "dce" m2;
  match Whirl.Whirl_io.parse (Whirl.Whirl_io.write m2) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m3 -> check "reloaded" m3

let suite =
  [
    Alcotest.test_case "tree round trip" `Quick test_tree_roundtrip;
    Alcotest.test_case "symtab round trip" `Quick test_symtab_roundtrip;
    Alcotest.test_case "analysis equal after reload" `Quick
      test_analysis_equal_after_reload;
    Alcotest.test_case "interp equal after reload" `Quick
      test_interp_equal_after_reload;
    Alcotest.test_case "floats bit-exact" `Quick test_floats_bit_exact;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "find_pu index follows rewrites" `Quick
      test_find_pu_index;
  ]
