open Regions

let run_src ?observer files =
  let prog = Lang.Frontend.load ~files in
  let m = Whirl.Lower.lower prog in
  Interp.run ?observer m

let test_arith_and_print () =
  let o =
    run_src
      [
        ( "t.f",
          {|      program t
      integer x, y
      x = 7
      y = x * 3 - 4
      print *, y, x ** 2
      end
|} );
      ]
  in
  Alcotest.(check string) "output" "17 49\n" o.Interp.out_text

let test_fortran_byref () =
  (* Fortran passes scalars by reference: the callee's assignment must be
     visible in the caller *)
  let o =
    run_src
      [
        ( "t.f",
          {|      program t
      integer x
      x = 1
      call bump(x)
      print *, x
      end

      subroutine bump(n)
      integer n
      n = n + 41
      end
|} );
      ]
  in
  Alcotest.(check string) "output" "42\n" o.Interp.out_text

let test_array_aliasing () =
  (* whole-array argument: callee writes through the formal *)
  let o =
    run_src
      [
        ( "t.f",
          {|      program t
      integer a(1:5)
      integer i
      call fill(a)
      do i = 1, 5
        print *, a(i)
      end do
      end

      subroutine fill(b)
      integer b(1:5)
      integer i
      do i = 1, 5
        b(i) = i * 10
      end do
      end
|} );
      ]
  in
  Alcotest.(check string) "output" "10\n20\n30\n40\n50\n" o.Interp.out_text

let test_strided_and_negative_loops () =
  let o =
    run_src
      [
        ( "t.f",
          {|      program t
      integer s, i
      s = 0
      do i = 10, 2, -2
        s = s + i
      end do
      print *, s
      end
|} );
      ]
  in
  Alcotest.(check string) "10+8+6+4+2" "30\n" o.Interp.out_text

let test_while_and_if () =
  let o =
    run_src
      [
        ( "t.f",
          {|      program t
      integer n, c
      n = 27
      c = 0
      do while (n .ne. 1)
        if (mod(n, 2) .eq. 0) then
          n = n / 2
        else
          n = 3 * n + 1
        end if
        c = c + 1
      end do
      print *, c
      end
|} );
      ]
  in
  Alcotest.(check string) "collatz(27)" "111\n" o.Interp.out_text

let test_c_program () =
  let o =
    run_src
      [
        ( "t.c",
          {|int a[8];
int main() {
  int i, s;
  s = 0;
  for (i = 0; i < 8; i++) {
    a[i] = i * i;
  }
  for (i = 0; i < 8; i += 2) {
    s += a[i];
  }
  printf("%d", s);
  return 0;
}
|} );
      ]
  in
  (* 0 + 4 + 16 + 36; printf "%d" formats without a newline *)
  Alcotest.(check string) "c output" "56" o.Interp.out_text

let test_out_of_bounds () =
  let src =
    ( "t.f",
      {|      program t
      integer a(1:5)
      a(9) = 1
      end
|} )
  in
  (try
     ignore (run_src [ src ]);
     Alcotest.fail "expected Runtime_error"
   with Interp.Runtime_error (msg, _) ->
     Alcotest.(check bool) "mentions bounds" true
       (String.length msg > 0))

let test_fuel () =
  let src =
    ( "t.f",
      {|      program t
      integer x
      x = 0
      do while (x .eq. 0)
        x = 0
      end do
      end
|} )
  in
  let m = Whirl.Lower.lower (Lang.Frontend.load ~files:[ src ]) in
  match Interp.run ~fuel:1000 m with
  | _ -> Alcotest.fail "out of fuel not raised"
  | exception Interp.Out_of_fuel o ->
    Alcotest.(check int) "stopped at the budget" 1000 o.Interp.out_steps

(* the partial outcome an exhausted recording run raises keeps the output
   and the out-of-bounds events it saw before the budget ran out *)
let test_fuel_keeps_partial_run () =
  let src =
    ( "t.f",
      {|      program t
      integer a(4), i, x
      do i = 1, 6
        a(i) = i
      end do
      print *, 'filled'
      x = 0
      do while (x .eq. 0)
        x = 0
      end do
      end
|} )
  in
  let m = Whirl.Lower.lower (Lang.Frontend.load ~files:[ src ]) in
  let o =
    match Interp.run ~fuel:200 ~record_oob:true m with
    | _ -> Alcotest.fail "out of fuel not raised"
    | exception Interp.Out_of_fuel o -> o
  in
  Alcotest.(check int) "both stores past a(4) kept" 2
    (List.length o.Interp.out_oob);
  Alcotest.(check bool) "output before exhaustion kept" true
    (String.length o.Interp.out_text > 0)

let test_events_carry_layout_addresses () =
  let events = ref [] in
  let _ =
    run_src
      ~observer:(fun ev -> events := ev :: !events)
      [
        ( "t.f",
          {|      program t
      double precision a(1:4)
      integer i
      do i = 1, 4
        a(i) = i
      end do
      end
|} );
      ]
  in
  let writes = List.rev !events in
  Alcotest.(check int) "4 writes" 4 (List.length writes);
  let addrs = List.map (fun e -> e.Interp.ev_addr) writes in
  (* consecutive elements 8 bytes apart, ascending *)
  let rec deltas = function
    | a :: (b :: _ as rest) -> (b - a) :: deltas rest
    | _ -> []
  in
  Alcotest.(check (list int)) "stride 8 addresses" [ 8; 8; 8 ] (deltas addrs);
  List.iter
    (fun e ->
      Alcotest.(check bool) "write" true e.Interp.ev_write;
      Alcotest.(check string) "array name" "a" e.Interp.ev_array;
      Alcotest.(check int) "8 bytes" 8 e.Interp.ev_bytes)
    writes

(* dynamic sections must be covered by the static regions *)
let test_static_covers_dynamic () =
  let files = [ Corpus.Small.matrix_c ] in
  let result = Engine.analyze_sources files in
  let m = result.Ipa.Analyze.r_module in
  let outcome = Interp.run m in
  List.iter
    (fun dr ->
      match Methods.Section.dims dr.Interp.dr_section with
      | None -> ()
      | Some dims ->
        (* every dynamically touched coordinate must lie inside the union
           of the static rows' constant bounds for that (array, mode) *)
        let static =
          List.filter
            (fun (a : Ipa.Collect.access) ->
              Mode.equal a.Ipa.Collect.ac_mode dr.Interp.dr_mode)
            (List.concat_map
               (fun (_, info) -> info.Ipa.Collect.p_accesses)
               result.Ipa.Analyze.r_infos)
          |> List.filter (fun (a : Ipa.Collect.access) ->
                 (* match on name via region arity: matrix.c has only aarr *)
                 Region.dim_list a.Ipa.Collect.ac_region <> [])
        in
        let covered coords =
          List.exists
            (fun (a : Ipa.Collect.access) ->
              Region.contains_point a.Ipa.Collect.ac_region coords)
            static
        in
        List.iter
          (fun (d : Methods.Section.dim) ->
            Alcotest.(check bool)
              (Printf.sprintf "lo %d covered" d.Methods.Section.lo)
              true
              (covered [ d.Methods.Section.lo ]);
            Alcotest.(check bool)
              (Printf.sprintf "hi %d covered" d.Methods.Section.hi)
              true
              (covered [ d.Methods.Section.hi ]))
          dims)
    outcome.Interp.out_regions

let test_function_result () =
  (* regression: a user function in expression position returns its result
     (previously a silent 0) *)
  let o =
    run_src
      [
        ( "t.f",
          {|      program t
      integer r
      r = sq(7) + 1
      print *, r
      end

      integer function sq(n)
      integer n
      sq = n * n
      end
|} );
      ]
  in
  Alcotest.(check string) "49 + 1" "50
" o.Interp.out_text

let test_dynamic_call_feedback () =
  let prog = Lang.Frontend.load ~files:[ Corpus.Small.fig1_f ] in
  let m = Whirl.Lower.lower prog in
  let o = Interp.run m in
  (* the j loop runs m=50 times, calling p1 and p2 each iteration *)
  Alcotest.(check (option int)) "fig1 -> add once" (Some 1)
    (List.assoc_opt ("fig1", "add") o.Interp.out_calls);
  Alcotest.(check (option int)) "add -> p1 fifty times" (Some 50)
    (List.assoc_opt ("add", "p1") o.Interp.out_calls);
  Alcotest.(check (option int)) "add -> p2 fifty times" (Some 50)
    (List.assoc_opt ("add", "p2") o.Interp.out_calls)

let test_lu_class_s_runs () =
  (* the whole NAS-LU-shaped program executes at class S with few steps *)
  let files = Corpus.Nas_lu.files ~cls:'S' () in
  let prog = Lang.Frontend.load ~files in
  let m = Whirl.Lower.lower prog in
  (* shrink the iteration count via fuel rather than editing the corpus:
     class S with itmax=250 is ~hundreds of millions of statements, so run
     only until the budget trips and check we got deep into execution *)
  (try ignore (Interp.run ~fuel:2_000_000 m) with Interp.Out_of_fuel _ -> ());
  Alcotest.(check pass) "no runtime errors before the fuel limit" () ()

let suite =
  [
    Alcotest.test_case "arithmetic & print" `Quick test_arith_and_print;
    Alcotest.test_case "fortran by-reference scalars" `Quick test_fortran_byref;
    Alcotest.test_case "array argument aliasing" `Quick test_array_aliasing;
    Alcotest.test_case "negative-step loop" `Quick test_strided_and_negative_loops;
    Alcotest.test_case "while + if" `Quick test_while_and_if;
    Alcotest.test_case "C program" `Quick test_c_program;
    Alcotest.test_case "out-of-bounds detection" `Quick test_out_of_bounds;
    Alcotest.test_case "fuel limit" `Quick test_fuel;
    Alcotest.test_case "fuel exhaustion keeps the partial run" `Quick
      test_fuel_keeps_partial_run;
    Alcotest.test_case "events carry layout addresses" `Quick test_events_carry_layout_addresses;
    Alcotest.test_case "static covers dynamic" `Quick test_static_covers_dynamic;
    Alcotest.test_case "function result" `Quick test_function_result;
    Alcotest.test_case "dynamic call feedback" `Quick test_dynamic_call_feedback;
    Alcotest.test_case "NAS LU class S executes" `Quick test_lu_class_s_runs;
  ]
