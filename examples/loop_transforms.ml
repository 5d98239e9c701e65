(* The LNO layer driven by region analysis: loop-level summaries, legality-
   checked fusion and interchange, and OpenMP auto-parallelization with
   reduction recognition.

   Run with: dune exec examples/loop_transforms.exe *)

let source =
  ( "transforms.f",
    {|      program transforms
      double precision a(1:64), b(1:64), c(1:64, 1:64)
      double precision total
      integer i, j
c     two fusable loops over the same range
      do i = 1, 64
        a(i) = i * 1.5d0
      end do
      do i = 1, 64
        b(i) = a(i) + 1.0d0
      end do
c     a column-order nest that can be interchanged
      do i = 1, 64
        do j = 1, 64
          c(i, j) = a(i) * b(j)
        end do
      end do
c     a reduction
      total = 0.0d0
      do i = 1, 64
        total = total + b(i)
      end do
      print *, total
      end
|} )

let () =
  let result = Engine.analyze_sources [ source ] in
  let m = result.Ipa.Analyze.r_module in
  let summaries = result.Ipa.Analyze.r_summaries in
  let pu = Option.get (Whirl.Ir.find_pu m "transforms") in

  print_endline "### Loop-level summaries (paper Sec I: loop-level granularity)";
  print_string (Ipa.Loopsum.render m pu (Ipa.Loopsum.of_pu m summaries pu));

  print_endline "### Fusion (Case 1's transformation, applied automatically)";
  let fused, n = Ipa.Lno.fuse_pu m summaries pu in
  Printf.printf "fused %d adjacent loop pair(s)\n" n;
  let before = Interp.run m in
  let after = Interp.run (Whirl.Ir.with_pus m [ fused ]) in
  Printf.printf "output unchanged: %b\n"
    (String.equal before.Interp.out_text after.Interp.out_text);

  print_endline "### Interchange (make j the outer loop where legal)";
  let swapped, ni =
    Ipa.Lno.interchange_pu m summaries pu ~want:(fun ~outer_ivar ~inner_ivar ->
        outer_ivar = "i" && inner_ivar = "j")
  in
  Printf.printf "interchanged %d nest(s)\n" ni;
  let after_swap = Interp.run (Whirl.Ir.with_pus m [ swapped ]) in
  Printf.printf "output unchanged: %b\n"
    (String.equal before.Interp.out_text after_swap.Interp.out_text);

  print_endline "### Auto-parallelization (APO continuation)";
  let report = Ipa.Autopar.plan m summaries in
  print_string (Ipa.Autopar.render report);

  print_endline "### Annotated source";
  print_string (Ipa.Autopar.annotate report ~file:"transforms.f" (snd source))
