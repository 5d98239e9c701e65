open Whirl
open Regions

type key =
  | Kglobal of int
  | Kformal of int

type entry = {
  e_key : key;
  e_mode : Mode.t;
  e_region : Region.t;
  e_count : int;
}

type t = entry list

let max_regions_per_key = 8

let same_slot a b = a.e_key = b.e_key && Mode.equal a.e_mode b.e_mode

let add_entry summary entry =
  (* merge display-equal regions in the same slot *)
  let merged = ref false in
  let summary =
    List.map
      (fun e ->
        if
          (not !merged) && same_slot e entry
          && Region.equal_display e.e_region entry.e_region
        then begin
          merged := true;
          { e with e_count = e.e_count + entry.e_count }
        end
        else e)
      summary
  in
  if !merged then summary
  else begin
    let slot = List.filter (same_slot entry) summary in
    if List.length slot < max_regions_per_key then summary @ [ entry ]
    else begin
      (* cap reached: collapse the slot into one approximated union *)
      let rest = List.filter (fun e -> not (same_slot e entry)) summary in
      let union =
        List.fold_left
          (fun acc e -> Region.union_approx acc e.e_region)
          entry.e_region slot
      in
      let count =
        List.fold_left (fun acc e -> acc + e.e_count) entry.e_count slot
      in
      rest @ [ { entry with e_region = union; e_count = count } ]
    end
  end

(* Bucketed construction: the same summary [add_entry] builds, without the
   O(n) whole-list scan per insertion.  Entries live in a growable array in
   insertion order (a [None] is a tombstone left by a cap collapse); a
   hashtable maps each (key, mode) slot to its live indices in increasing
   order.  "First display-equal entry in the list" is then "first
   display-equal index in the bucket", and a cap collapse tombstones the
   bucket and appends the merged entry at the end — the exact positions
   [add_entry] produces. *)
module Builder = struct
  type b = {
    mutable arr : entry option array;
    mutable len : int;
    index : (key * Mode.t, int list) Hashtbl.t;
  }

  let create () =
    { arr = Array.make 16 None; len = 0; index = Hashtbl.create 16 }

  let push b entry =
    if b.len = Array.length b.arr then begin
      let arr' = Array.make (2 * b.len) None in
      Array.blit b.arr 0 arr' 0 b.len;
      b.arr <- arr'
    end;
    let i = b.len in
    b.arr.(i) <- Some entry;
    b.len <- b.len + 1;
    i

  let add b entry =
    let k = (entry.e_key, entry.e_mode) in
    let idxs = try Hashtbl.find b.index k with Not_found -> [] in
    let rec try_merge = function
      | [] -> false
      | i :: rest -> (
        match b.arr.(i) with
        | Some e when Region.equal_display e.e_region entry.e_region ->
          b.arr.(i) <- Some { e with e_count = e.e_count + entry.e_count };
          true
        | _ -> try_merge rest)
    in
    if try_merge idxs then ()
    else if List.length idxs < max_regions_per_key then begin
      let i = push b entry in
      Hashtbl.replace b.index k (idxs @ [ i ])
    end
    else begin
      let slot = List.filter_map (fun i -> b.arr.(i)) idxs in
      let union =
        Region.union_many (entry.e_region :: List.map (fun e -> e.e_region) slot)
      in
      let count =
        List.fold_left (fun acc e -> acc + e.e_count) entry.e_count slot
      in
      List.iter (fun i -> b.arr.(i) <- None) idxs;
      let i = push b { entry with e_region = union; e_count = count } in
      Hashtbl.replace b.index k [ i ]
    end

  (* A well-formed summary replays through [add] as pure appends (slots are
     display-distinct and within the cap), so this is the identity on the
     entry list — it just rebuilds the bucket index. *)
  let of_summary (s : t) =
    let b = create () in
    List.iter (add b) s;
    b

  let to_summary b =
    let out = ref [] in
    for i = b.len - 1 downto 0 do
      match b.arr.(i) with Some e -> out := e :: !out | None -> ()
    done;
    !out
end

let add_entries summary entries =
  let b = Builder.of_summary summary in
  List.iter (Builder.add b) entries;
  Builder.to_summary b

let formal_position pu st =
  let rec go i = function
    | [] -> None
    | f :: rest -> if f = st then Some i else go (i + 1) rest
  in
  if Ir.is_global_idx st then None else go 0 pu.Ir.pu_formals

let of_local m pu accesses =
  ignore m;
  let entries =
    List.filter_map
      (fun (a : Collect.access) ->
        match a.Collect.ac_mode with
        | Mode.FORMAL | Mode.PASSED -> None
        | Mode.RUSE | Mode.RDEF ->
          (* remote accesses target another image's copy: they are displayed
             per-procedure but do not contribute to local side effects *)
          None
        | (Mode.USE | Mode.DEF) as mode ->
          let key =
            if Ir.is_global_idx a.Collect.ac_st then
              Some (Kglobal a.Collect.ac_st)
            else
              match formal_position pu a.Collect.ac_st with
              | Some p -> Some (Kformal p)
              | None -> None (* locals do not escape *)
          in
          Option.map
            (fun e_key ->
              { e_key; e_mode = mode; e_region = a.Collect.ac_region; e_count = 1 })
            key)
      accesses
  in
  add_entries [] entries

let opaque m pu =
  let entries = ref [] in
  (* all global arrays *)
  Symtab.iter_st m.Ir.m_global (fun idx st_entry ->
      match Symtab.ty m.Ir.m_global st_entry.Symtab.st_ty with
      | Symtab.Ty_array _ ->
        let code = Ir.encode_global idx in
        let region =
          (* worst-case: the callee's real accesses are unknown, so the
             whole-extent fallback is a clamp, not a proof of in-bounds *)
          Region.mark_clamped
            (Region.whole ~extents:(Collect.extents_of m pu code))
        in
        entries :=
          { e_key = Kglobal code; e_mode = Mode.USE; e_region = region; e_count = 1 }
          :: { e_key = Kglobal code; e_mode = Mode.DEF; e_region = region; e_count = 1 }
          :: !entries
      | Symtab.Ty_scalar _ -> ());
  (* all formal arrays *)
  List.iteri
    (fun p idx ->
      let st_entry = Symtab.st pu.Ir.pu_symtab idx in
      match Symtab.ty pu.Ir.pu_symtab st_entry.Symtab.st_ty with
      | Symtab.Ty_array _ ->
        let region =
          Region.mark_clamped
            (Region.whole ~extents:(Collect.extents_of m pu idx))
        in
        entries :=
          { e_key = Kformal p; e_mode = Mode.USE; e_region = region; e_count = 1 }
          :: { e_key = Kformal p; e_mode = Mode.DEF; e_region = region; e_count = 1 }
          :: !entries
      | Symtab.Ty_scalar _ -> ())
    pu.Ir.pu_formals;
  !entries

type translated = {
  t_st : int;
  t_mode : Mode.t;
  t_region : Region.t;
  t_count : int;
}

(* Substitution for the callee's symbolic formal scalars. *)
let scalar_substitution m ~caller ~callee ~(site : Collect.site) =
  let subst = ref [] in
  List.iteri
    (fun p formal_st ->
      match List.nth_opt site.Collect.s_args p with
      | None -> ()
      | Some arg ->
        let formal_entry = Symtab.st callee.Ir.pu_symtab formal_st in
        (match Symtab.ty callee.Ir.pu_symtab formal_entry.Symtab.st_ty with
        | Symtab.Ty_scalar _ -> (
          let formal_var =
            Collect.sym_var ~m ~pu:callee.Ir.pu_name ~st:formal_st
              ~name:formal_entry.Symtab.st_name
          in
          match arg with
          | Collect.Arg_value (Affine.Affine e) ->
            subst := (formal_var, e) :: !subst
          | Collect.Arg_scalar_ref st' ->
            (* an active caller loop variable, or a caller symbolic scalar *)
            let e =
              match List.assoc_opt st' site.Collect.s_loops with
              | Some lc -> Linear.Expr.var lc.Region.lc_var
              | None ->
                let name = Ir.st_name m caller st' in
                Linear.Expr.var
                  (Collect.sym_var ~m ~pu:caller.Ir.pu_name ~st:st' ~name)
            in
            subst := (formal_var, e) :: !subst
          | _ -> ())
        | Symtab.Ty_array _ -> ()))
    callee.Ir.pu_formals;
  !subst

let translate m ~caller ~callee ~site summary =
  let subst = scalar_substitution m ~caller ~callee ~site in
  List.filter_map
    (fun e ->
      (* the target array on the caller side *)
      let target =
        match e.e_key with
        | Kglobal g -> Some (g, `Exact)
        | Kformal p -> (
          match List.nth_opt site.Collect.s_args p with
          | Some (Collect.Arg_array_whole st') -> Some (st', `Exact)
          | Some (Collect.Arg_array_elem (st', _)) -> Some (st', `Whole)
          | _ -> None)
      in
      match target with
      | None -> None
      | Some (st', how) ->
        let region =
          match how with
          | `Whole ->
            (* element passing re-bases the callee's view of the array
               (Fortran sequence association): fall back to the whole
               actual array, flagged approximate *)
            Region.mark_clamped
              (Region.approximate
                 (Region.whole ~extents:(Collect.extents_of m caller st')))
          | `Exact ->
            let callee_ndims = (e.e_region : Region.t).Region.ndims in
            let caller_ndims = List.length (Collect.extents_of m caller st') in
            if callee_ndims <> caller_ndims then
              Region.mark_clamped
                (Region.approximate
                   (Region.whole ~extents:(Collect.extents_of m caller st')))
            else
              e.e_region
              |> Region.subst_sym subst
              |> Region.close_under_loops (List.map snd site.Collect.s_loops)
        in
        Some { t_st = st'; t_mode = e.e_mode; t_region = region; t_count = e.e_count })
    summary

let pp m pu ppf (t : t) =
  List.iter
    (fun e ->
      let name =
        match e.e_key with
        | Kglobal g -> Ir.st_name m pu g
        | Kformal p -> Printf.sprintf "formal#%d" p
      in
      Format.fprintf ppf "%s %s %a x%d@," name
        (Mode.to_string e.e_mode)
        Region.pp e.e_region e.e_count)
    t
