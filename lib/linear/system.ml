open Numeric

(* Hash-consed canonical form: [cs] is sorted by Constr.compare,
   deduplicated, free of trivially-true members; [id] is the intern id of
   that constraint list, so equality of systems is one integer comparison
   and the solver memos key on ints instead of serialized strings.

   Ids are allocation-order dependent (parallel domains intern in racy
   order), so nothing rendered, persisted or ordered may depend on them:
   [compare]-based sorting stays structural in Constr/Expr, fault keys
   stay content-serialized ([key_of]), and the engine's cache digests stay
   content-based. *)

type t = { id : int; cs : Constr.t list }

module I = Intern.Make (struct
  type nonrec t = t

  let equal a b = List.equal Constr.equal a.cs b.cs

  let hash t =
    List.fold_left (fun acc c -> Intern.mix acc (Constr.id c)) 0x2545f491 t.cs

  let with_id t id = { t with id }
  let name = "system"
end)

(* [cs] must already be in canonical (normalized) form. *)
let intern_norm cs = I.intern { id = -1; cs }

let false_constraint = Constr.make (Expr.of_int 1) Constr.Le

(* List-level canonicalization.  The eliminator pipeline below works on
   plain constraint lists and interns only at the public API boundary, so
   intermediate Fourier-Motzkin systems do not pay an intern round-trip. *)
let norm_l cs =
  let cs = List.filter (fun c -> Constr.is_trivial c <> Some true) cs in
  if List.exists (fun c -> Constr.is_trivial c = Some false) cs then
    [ false_constraint ]
  else List.sort_uniq Constr.compare cs

let of_list cs = intern_norm (norm_l cs)

let top = of_list []
let bottom = of_list [ false_constraint ]

let to_list t = t.cs
let id t = t.id
let equal a b = a.id = b.id
let add c t = of_list (c :: t.cs)
let meet a b = of_list (List.rev_append a.cs b.cs)
let size t = List.length t.cs

let vars_l cs =
  List.fold_left
    (fun acc c -> List.fold_left (fun s v -> Var.Set.add v s) acc (Constr.vars c))
    Var.Set.empty cs

let vars t = vars_l t.cs

let subst v e t = of_list (List.map (Constr.subst v e) t.cs)

let map_vars f t = of_list (List.map (Constr.map_vars f) t.cs)

(* Fourier-Motzkin step.  An equality mentioning [v] gives an exact
   substitution; otherwise lower bounds (coeff < 0) pair with upper bounds
   (coeff > 0).

   This eliminator also backs [project_onto]/[bounds]/[sample], whose
   results are rendered into .rgn files — it stays the single source of
   truth for anything output-sensitive.  Only answer-only queries below go
   through the packed solver. *)
let elim_l v cs =
  let mentions, free = List.partition (Constr.mem v) cs in
  match
    List.find_opt (fun c -> Constr.op c = Constr.Eq) mentions
  with
  | Some e ->
    let c = Expr.coeff v (Constr.expr e) in
    (* v = -(rest)/c *)
    let rest = Expr.subst v Expr.zero (Constr.expr e) in
    let solution = Expr.scale (Rat.div Rat.minus_one c) rest in
    let others = List.filter (fun c -> not (Constr.equal c e)) mentions in
    norm_l (free @ List.map (Constr.subst v solution) others)
  | None ->
    let uppers, lowers =
      List.partition (fun c -> Rat.sign (Expr.coeff v (Constr.expr c)) > 0) mentions
    in
    let combined =
      List.concat_map
        (fun lo ->
          let cl = Expr.coeff v (Constr.expr lo) in
          List.map
            (fun up ->
              let cu = Expr.coeff v (Constr.expr up) in
              (* cl < 0 < cu: cu*lo_expr - cl*up_expr removes v *)
              let e =
                Expr.sub
                  (Expr.scale cu (Constr.expr lo))
                  (Expr.scale cl (Constr.expr up))
              in
              Constr.make e Constr.Le)
            uppers)
        lowers
    in
    norm_l (free @ combined)

let eliminate_all_l vs cs = List.fold_left (fun cs v -> elim_l v cs) cs vs

let eliminate v t = intern_norm (elim_l v t.cs)

let eliminate_all vs t = intern_norm (eliminate_all_l vs t.cs)

let project_onto_l keep cs =
  let doomed = Var.Set.diff (vars_l cs) keep in
  eliminate_all_l (Var.Set.elements doomed) cs

let project_onto_raw keep t = intern_norm (project_onto_l keep t.cs)

(* The exact rational eliminator, kept verbatim as the reference answer for
   every fast path below (and exposed as [Reference.feasible] for
   differential tests and before/after benchmarking). *)
let ref_feasible_l cs =
  let cs = eliminate_all_l (Var.Set.elements (vars_l cs)) cs in
  not (List.exists (fun c -> Constr.is_trivial c = Some false) cs)

(* Constant bounds on [v] once every constraint mentions only [v]. *)
let local_bounds_l v cs =
  List.fold_left
    (fun (lo, hi) c ->
      let e = Constr.expr c in
      let cv = Expr.coeff v e in
      if Rat.sign cv = 0 then (lo, hi)
      else
        let b = Rat.div (Rat.neg (Expr.constant e)) cv in
        let tighten_lo lo = match lo with
          | None -> Some b
          | Some l -> Some (Rat.max l b)
        and tighten_hi hi = match hi with
          | None -> Some b
          | Some h -> Some (Rat.min h b)
        in
        match Constr.op c with
        | Constr.Eq -> (tighten_lo lo, tighten_hi hi)
        | Constr.Le ->
          if Rat.sign cv > 0 then (lo, tighten_hi hi) else (tighten_lo lo, hi))
    (None, None) cs

let bounds_raw v t =
  let cs = project_onto_l (Var.Set.singleton v) t.cs in
  if List.exists (fun c -> Constr.is_trivial c = Some false) cs then
    (* infeasible system: conventionally empty bounds *)
    (Some Rat.one, Some Rat.zero)
  else local_bounds_l v cs

(* Negation of [e <= 0] over integer points (integer coefficients assured by
   Constr normalization) is [1 - e <= 0]. *)
let negations c =
  let e = Constr.expr c in
  match Constr.op c with
  | Constr.Le -> [ Constr.make (Expr.add_const Rat.one (Expr.neg e)) Constr.Le ]
  | Constr.Eq ->
    [ Constr.make (Expr.add_const Rat.one (Expr.neg e)) Constr.Le;
      Constr.make (Expr.add_const Rat.one e) Constr.Le ]

let ref_implies t c =
  List.for_all
    (fun n -> not (ref_feasible_l (norm_l (n :: t.cs))))
    (negations c)

let ref_includes a b = List.for_all (fun c -> ref_implies b c) a.cs
let ref_disjoint a b = not (ref_feasible_l (norm_l (List.rev_append a.cs b.cs)))
let ref_equal_semantic a b = ref_includes a b && ref_includes b a

(* ---------- query layer ---------- *)

let use_reference = Atomic.make false
let use_cache = Atomic.make true

(* Step budget: a per-query cost cap (constraint count x variable count, a
   deterministic proxy for elimination work).  A query over budget — or one
   the fault layer targets — degrades to the interval-box answer instead of
   running an eliminator: [true] unless the box alone refutes the system.
   That direction is conservative everywhere feasibility is consumed
   (implies/disjoint degrade to "cannot prove", so regions only grow).
   Degraded answers are never memoized, nor is an [implies] answer built on
   one, so turning the budget off restores exact answers immediately. *)
let step_budget = Atomic.make (-1)

let set_reference_mode b = Atomic.set use_reference b
let set_cache_enabled b = Atomic.set use_cache b

let set_step_budget n =
  Atomic.set step_budget (match n with None -> -1 | Some n -> max 0 n)

let query_cost t = List.length t.cs * (1 + Var.Set.cardinal (vars t))

let over_budget t =
  let b = Atomic.get step_budget in
  b >= 0 && query_cost t > b

let c_degraded = Obs.Metrics.counter "solver.degraded"

(* degraded [feasible] answers given on this domain so far: an [implies]
   computation compares it before and after to learn whether any of its
   subqueries degraded *)
let degraded_here = Domain.DLS.new_key (fun () -> ref 0)

(* Packed rows of a system, [None] when a coefficient does not pack. *)
let packed_rows t =
  match Packed.pack t.cs with
  | rows -> Some rows
  | exception (Packed.Not_packable | Rat.Overflow) -> None

let box_feasible t =
  match packed_rows t with
  | None -> true
  | Some rows -> ( match Packed.box_of rows with None -> false | Some _ -> true)

(* One shared memo per query kind: [feasible] keyed by system id,
   [implies] by (system id, constraint id), [bounds] by (system id, var
   id), [project_onto] by (system id, sorted kept var ids).  All four obey
   one rule, [memoized]: the first domain to reach a key marks it
   [Pending] and computes; a later arrival waits on the table's condition
   until the key is [Done], then counts a hit.  A computation that raises,
   or whose answer must not be stored (an [implies] resting on a degraded
   [feasible]), removes its key and wakes the waiters, which retry.  So
   each distinct storable key is computed, and its work counted, exactly
   once however the pool schedules queries across domains, and an
   unstorable one once per query.

   Deadlock freedom rests on one invariant: the only nesting is that an
   [implies] computation calls [feasible]; [feasible], [bounds] and
   [project_onto] computations query no memo.  So a domain holding a
   pending key only ever waits on a table below it, never on its own. *)
type 'v slot = Pending | Done of 'v

type ('k, 'v) memo = {
  tbl : ('k, 'v slot) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;
}

let memo () =
  { tbl = Hashtbl.create 4096; lock = Mutex.create ();
    settled = Condition.create () }

let feasible_memo : (int, bool) memo = memo ()
let implies_memo : (int * int, bool) memo = memo ()
let bounds_memo : (int * int, Rat.t option * Rat.t option) memo = memo ()
let proj_memo : (int * int list, t) memo = memo ()

(* The answer for [key]: from the table (running [hit]) when some domain
   already computed it, else from [compute] on this domain, which returns
   the answer and whether to store it. *)
let memoized m key ~hit compute =
  Mutex.lock m.lock;
  let rec await () =
    match Hashtbl.find_opt m.tbl key with
    | Some (Done v) ->
      Mutex.unlock m.lock;
      hit ();
      v
    | Some Pending ->
      Condition.wait m.settled m.lock;
      await ()
    | None ->
      Hashtbl.add m.tbl key Pending;
      Mutex.unlock m.lock;
      let settle answer =
        Mutex.lock m.lock;
        (match answer with
        | Some v -> Hashtbl.replace m.tbl key (Done v)
        | None -> Hashtbl.remove m.tbl key);
        Condition.broadcast m.settled;
        Mutex.unlock m.lock
      in
      (match compute () with
      | v, store ->
        settle (if store then Some v else None);
        v
      | exception e ->
        settle None;
        raise e)
  in
  await ()

let reset m =
  Mutex.lock m.lock;
  Hashtbl.reset m.tbl;
  Mutex.unlock m.lock

let clear_cache () =
  (* only sound while no worker is mid-query (tests, bench, and the
     pipeline's run boundaries); Hashtbl.reset on a table another domain
     reads concurrently would race *)
  reset feasible_memo;
  reset implies_memo;
  reset bounds_memo;
  reset proj_memo

(* Canonical content key: [t.cs] is sorted and deduplicated, so serializing
   (op, var ids, coefficients, constant) in order is injective.  Only the
   fault-injection layer still needs this (fault firing must be a pure
   function of the system's content, not of scheduling-dependent intern
   ids); the memo tables key on ids. *)
let key_of t =
  let b = Buffer.create 128 in
  let add_rat r =
    Buffer.add_string b (string_of_int (Rat.num r));
    if Rat.den r <> 1 then begin
      Buffer.add_char b '/';
      Buffer.add_string b (string_of_int (Rat.den r))
    end
  in
  List.iter
    (fun c ->
      Buffer.add_char b (match Constr.op c with Constr.Le -> 'L' | Constr.Eq -> 'E');
      let e = Constr.expr c in
      Expr.fold
        (fun v r () ->
          Buffer.add_string b (string_of_int (Var.id v));
          Buffer.add_char b ':';
          add_rat r;
          Buffer.add_char b ',')
        e ();
      Buffer.add_char b '=';
      add_rat (Expr.constant e);
      Buffer.add_char b ';')
    t.cs;
  Buffer.contents b

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Latency histograms, one per (query kind, decision tag): [hit] answered
   from the memo, [prefilter] decided by a box/syntactic check, [eliminated]
   paid for an elimination (packed FM or the reference eliminator).
   Observation is gated on [Obs.Metrics.enabled] at the call sites, so with
   metrics off the only cost left in [implies]/[disjoint] is one atomic
   load. *)
let h_feasible_hit = Obs.Metrics.histogram "solver.feasible.hit.ns"
let h_feasible_prefilter = Obs.Metrics.histogram "solver.feasible.prefilter.ns"
let h_feasible_eliminated =
  Obs.Metrics.histogram "solver.feasible.eliminated.ns"
let h_implies_hit = Obs.Metrics.histogram "solver.implies.hit.ns"
let h_implies_prefilter = Obs.Metrics.histogram "solver.implies.prefilter.ns"
let h_implies_eliminated = Obs.Metrics.histogram "solver.implies.eliminated.ns"
let h_disjoint_prefilter = Obs.Metrics.histogram "solver.disjoint.prefilter.ns"
let h_disjoint_eliminated =
  Obs.Metrics.histogram "solver.disjoint.eliminated.ns"

(* Packed feasibility: GCD-tightened first; a refutation that involved
   strict tightening is re-checked exactly so the answer always equals
   [ref_feasible_l].  Overflow and unpackable coefficients fall back to the
   reference eliminator.  Also returns which histogram the query belongs
   to: [`Prefilter] when the box check decided it, [`Eliminated] when an
   eliminator ran. *)
let compute_feasible t =
  let fallback () =
    Solver_stats.overflow_fallback ();
    Solver_stats.reference_run ();
    (ref_feasible_l t.cs, `Eliminated)
  in
  match packed_rows t with
  | None -> fallback ()
  | Some rows -> (
    try
      match Packed.box_of rows with
      | None ->
        Solver_stats.box_refutation ();
        (false, `Prefilter)
      | Some _ -> (
        match Packed.feasible ~tighten:true rows with
        | Packed.Feasible -> (true, `Eliminated)
        | Packed.Infeasible -> (false, `Eliminated)
        | Packed.Infeasible_tightened -> (
          Solver_stats.tighten_fallback ();
          match Packed.feasible ~tighten:false rows with
          | Packed.Feasible -> (true, `Eliminated)
          | Packed.Infeasible | Packed.Infeasible_tightened ->
            (false, `Eliminated)))
    with Packed.Not_packable | Rat.Overflow -> fallback ())

let feasible_hist = function
  | `Hit -> h_feasible_hit
  | `Prefilter -> h_feasible_prefilter
  | `Eliminated -> h_feasible_eliminated

let feasible t =
  Solver_stats.query ();
  if Atomic.get use_reference then begin
    Solver_stats.reference_run ();
    let t0 = now_ns () in
    let r = ref_feasible_l t.cs in
    let ns = now_ns () - t0 in
    Solver_stats.add_reference_ns ns;
    if Obs.Metrics.enabled () then Obs.Hist.observe h_feasible_eliminated ns;
    r
  end
  else begin
    let t0 = now_ns () in
    (* Degradation test, checked BEFORE the memo answers: deterministic in
       the system's content (and the fault seed), never in scheduling or in
       whatever answers previous runs left in the memo.  A degraded query
       bypasses the memo entirely (it neither reads, writes nor counts a
       key), so lifting the budget (or the fault spec) restores exact
       answers immediately and [solver.degraded] counts calls.  The fault
       key stays the content serialization — intern ids differ across runs
       — and is only built when a fault spec is active. *)
    let degrades =
      over_budget t
      || (Fault.enabled () && Fault.fires Fault.Solver ~key:(key_of t))
    in
    let r, tag =
      if degrades then begin
        Obs.Metrics.Counter.incr c_degraded;
        incr (Domain.DLS.get degraded_here);
        (box_feasible t, `Prefilter)
      end
      else if not (Atomic.get use_cache) then compute_feasible t
      else begin
        let tag = ref `Hit in
        let r =
          memoized feasible_memo t.id ~hit:Solver_stats.cache_hit (fun () ->
              Solver_stats.cache_miss ();
              let r, computed = compute_feasible t in
              tag := computed;
              (r, true))
        in
        (r, !tag)
      end
    in
    let ns = now_ns () - t0 in
    Solver_stats.add_fast_ns ns;
    if Obs.Metrics.enabled () then Obs.Hist.observe (feasible_hist tag) ns;
    r
  end

(* The compound queries below route every internal feasibility test through
   [feasible] — in reference mode included — so the per-mode wall-clock
   counters cover the same set of underlying queries in both modes. *)

let implies_uncached t c =
  if Atomic.get use_reference then
    List.for_all (fun n -> not (feasible (add n t))) (negations c)
  else begin
    let mt = Obs.Metrics.enabled () in
    let t0 = if mt then now_ns () else 0 in
    let observe h = if mt then Obs.Hist.observe h (now_ns () - t0) in
    if List.exists (Constr.equal c) t.cs then begin
      (* quasi-syntactic entailment: [c] is literally one of the
         constraints *)
      Solver_stats.syntactic_hit ();
      observe h_implies_hit;
      true
    end
    else begin
      let fast =
        match packed_rows t with
        | None -> None
        | Some rows -> (
          try
            match Packed.box_of rows with
            | None ->
              (* [t] itself is infeasible, so it entails anything *)
              Solver_stats.box_refutation ();
              Some true
            | Some box ->
              if Packed.box_implies box [| Packed.pack_constr c |] then begin
                Solver_stats.syntactic_hit ();
                Some true
              end
              else None
          with Packed.Not_packable | Rat.Overflow -> None)
      in
      match fast with
      | Some r ->
        observe h_implies_prefilter;
        r
      | None ->
        let r =
          List.for_all (fun n -> not (feasible (add n t))) (negations c)
        in
        observe h_implies_eliminated;
        r
    end
  end

(* The memo is off only while the run deliberately measures raw paths:
   reference / cache-off modes exist to time the unmemoized paths.  Under a
   step budget or a fault spec it stays on, and [implies] declines to store
   only the answers whose [feasible] subqueries degraded. *)
let implies_memo_ok () =
  Atomic.get use_cache && not (Atomic.get use_reference)

let implies t c =
  Solver_stats.implies_query ();
  let t0 = now_ns () in
  let fresh () =
    Solver_stats.implies_fresh ();
    implies_uncached t c
  in
  let r =
    if implies_memo_ok () then
      memoized implies_memo (t.id, Constr.id c) ~hit:ignore (fun () ->
          let degraded = Domain.DLS.get degraded_here in
          let before = !degraded in
          let r = fresh () in
          (r, !degraded = before))
    else fresh ()
  in
  Solver_stats.add_implies_ns (now_ns () - t0);
  r

let includes a b =
  if Atomic.get use_reference then List.for_all (fun c -> implies b c) a.cs
  else equal a b || List.for_all (fun c -> implies b c) a.cs

let disjoint a b =
  if Atomic.get use_reference then not (feasible (meet a b))
  else begin
    let mt = Obs.Metrics.enabled () in
    let t0 = if mt then now_ns () else 0 in
    let observe h = if mt then Obs.Hist.observe h (now_ns () - t0) in
    let fast =
      match (packed_rows a, packed_rows b) with
      | Some ra, Some rb -> (
        try
          match (Packed.box_of ra, Packed.box_of rb) with
          | None, _ | _, None ->
            Solver_stats.box_refutation ();
            Some true
          | Some ba, Some bb ->
            if Packed.boxes_disjoint ba bb then begin
              Solver_stats.box_refutation ();
              Some true
            end
            else None
        with Packed.Not_packable | Rat.Overflow -> None)
      | _ -> None
    in
    match fast with
    | Some r ->
      observe h_disjoint_prefilter;
      r
    | None ->
      let r = not (feasible (meet a b)) in
      observe h_disjoint_eliminated;
      r
  end

let equal_semantic a b = includes a b && includes b a

let simplify t =
  (* keep a constraint only if the others do not already entail it *)
  let rec go kept = function
    | [] -> kept
    | c :: rest ->
      let others = List.rev_append kept rest in
      if others <> [] && implies (of_list others) c then go kept rest
      else go (c :: kept) rest
  in
  of_list (go [] t.cs)

let pick_in_range lo hi =
  match lo, hi with
  | None, None -> Rat.zero
  | Some l, None ->
    let c = Rat.of_int (Rat.ceil l) in
    if Rat.( >= ) c l then c else l
  | None, Some h ->
    let f = Rat.of_int (Rat.floor h) in
    if Rat.( <= ) f h then f else h
  | Some l, Some h ->
    let cl = Rat.ceil l and fh = Rat.floor h in
    if cl <= fh then Rat.of_int cl
    else Rat.div (Rat.add l h) (Rat.of_int 2)

let sample t =
  let subst_l v e cs = norm_l (List.map (Constr.subst v e) cs) in
  let rec solve sys = function
    | [] ->
      if List.exists (fun c -> Constr.is_trivial c = Some false) sys then None
      else Some Var.Map.empty
    | v :: rest -> (
      let sys' = elim_l v sys in
      match solve sys' rest with
      | None -> None
      | Some m ->
        let sysv =
          Var.Map.fold (fun u r s -> subst_l u (Expr.const r) s) m sys
        in
        let lo, hi = local_bounds_l v sysv in
        Some (Var.Map.add v (pick_in_range lo hi) m))
  in
  match solve t.cs (Var.Set.elements (vars t)) with
  | None -> None
  | Some m -> Some (fun v -> Var.Map.find v m)

(* Output-sensitive results (bounds, projections) memoized per system:
   the region layer re-derives both for the same interned system on every
   region rebuild (90%+ intern hit rate), each time paying the reference
   eliminator.  The stored value is exactly what one reference computation
   produced, so a memo hit returns the identical interned value a
   recompute would and the rendered .rgn bytes cannot move. *)
let bounds v t =
  if Atomic.get use_cache then
    memoized bounds_memo (t.id, Var.id v) ~hit:Solver_stats.ctx_bound_hit
      (fun () -> (bounds_raw v t, true))
  else bounds_raw v t

let project_onto keep t =
  if Atomic.get use_cache then
    memoized proj_memo
      (t.id, List.map Var.id (Var.Set.elements keep))
      ~hit:Solver_stats.ctx_proj_hit
      (fun () -> (project_onto_raw keep t, true))
  else project_onto_raw keep t

module Reference = struct
  let feasible t = ref_feasible_l t.cs
  let implies = ref_implies
  let includes = ref_includes
  let disjoint = ref_disjoint
  let equal_semantic = ref_equal_semantic
  let bounds = bounds_raw
  let sample = sample
end

let pp ppf t =
  if t.cs = [] then Format.pp_print_string ppf "{true}"
  else
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         Constr.pp)
      t.cs
