(* BDD manager: unique table, variable bookkeeping, the shared computed
   table and statistics counters.  All node creation goes through [mk],
   which enforces the two canonicity invariants (no redundant node, THEN
   edge regular), so semantically equal BDDs are always physically
   equal.

   The two kernel tables live in their own modules: [Unique] (weak,
   open-addressed, O(1) live counter) and [Computed] (lossy,
   direct-mapped, allocation-free).  This module owns their lifecycle
   (trim / clear / gc) and the per-operator hit/miss accounting. *)

type varset = {
  vid : int;                    (* interning key within the manager *)
  levels : int array;           (* strictly increasing *)
  member : bool array;          (* indexed by level, padded on demand *)
}

(* Per-operator hit/miss accounting.  Plain mutable fields: the
   increments sit next to computed-table lookups on every operator's
   hot path, so they must cost nothing beyond a store. *)
type cstat = { mutable hits : int; mutable misses : int }

(* Simultaneous-substitution vectors are interned by PHYSICAL equality
   (callers reuse one array across calls and must not mutate it after
   first use); the hash is structural over a bounded prefix, which is
   compatible with [==] and stable because edge tags never change. *)
module Subst_tbl = Hashtbl.Make (struct
  type t = Repr.t option array

  let equal = ( == )

  let hash (a : t) =
    let n = Array.length a in
    let h = ref (n * 0x9e3779b1) in
    for i = 0 to min (n - 1) 7 do
      let v = match a.(i) with None -> -1 | Some e -> Repr.tag e in
      h := (!h * 0x85ebca6b) lxor v
    done;
    !h land max_int
end)

type t = {
  unique : Unique.t;
  computed : Computed.t;
  mutable next_id : int;
  mutable nvars : int;
  mutable names : string array;
  mutable created : int;        (* total nodes ever interned *)
  mutable steps : int;          (* non-cached recursion steps, all ops *)
  mutable step_limit : int;     (* [tick] aborts once [steps] exceeds it *)
  mutable step_check : int;
      (* next [steps] value where [tick] takes its slow path: the first
         step past [step_limit] or the next 64K progress tick *)
  mutable peak_live : int;
  varsets : (int list, varset) Hashtbl.t;
  mutable next_vid : int;
  perms : (int array, int) Hashtbl.t; (* interned renamings *)
  mutable next_perm_id : int;
  stat_ite : cstat;
  stat_and_exists : cstat;
  stat_exists : cstat;
  stat_restrict : cstat;
  stat_constrain : cstat;
  stat_cofactor : cstat;
  stat_rename : cstat;
  stat_vcompose : cstat;
  mutable gc_events : int;      (* cache trims + explicit gc calls *)
  vcomposes : int Subst_tbl.t;
  mutable next_vcompose_id : int;
  mutable cache_entries_budget : int;
  mutable progress_hook : (t -> unit) option;
  mutable fault_hook : (t -> unit) option;
}

let fresh_cstat () = { hits = 0; misses = 0 }

let create ?(cache_budget = 2_000_000) () =
  {
    unique = Unique.create (1 lsl 14);
    computed = Computed.create ~budget:cache_budget;
    next_id = 1;
    nvars = 0;
    names = [||];
    created = 0;
    steps = 0;
    step_limit = max_int;
    step_check = 0x10000;
    peak_live = 0;
    varsets = Hashtbl.create 16;
    next_vid = 0;
    perms = Hashtbl.create 16;
    next_perm_id = 0;
    stat_ite = fresh_cstat ();
    stat_and_exists = fresh_cstat ();
    stat_exists = fresh_cstat ();
    stat_restrict = fresh_cstat ();
    stat_constrain = fresh_cstat ();
    stat_cofactor = fresh_cstat ();
    stat_rename = fresh_cstat ();
    stat_vcompose = fresh_cstat ();
    gc_events = 0;
    vcomposes = Subst_tbl.create 16;
    next_vcompose_id = 0;
    cache_entries_budget = cache_budget;
    progress_hook = None;
    fault_hook = None;
  }

(* O(1) invalidation of all memo state (generation bump).  Result
   references stay resident until overwritten; use [gc] to release
   them so the weak unique table can collect. *)
let clear_caches man = Computed.trim man.computed

(* With the lossy computed table the budget is enforced structurally
   (the table never grows past the power of two at or below the
   budget), so the old drop-everything-and-Gc.major path is gone: an
   over-budget occupancy -- only possible after shrinking the budget of
   a live manager -- costs a generation bump, counted like the cache
   drops it replaced via [gc_events]. *)
let maybe_trim_caches man =
  if Computed.occupied man.computed > man.cache_entries_budget then begin
    man.gc_events <- man.gc_events + 1;
    Computed.trim man.computed
  end

exception Node_budget_exhausted

let next_step_check man =
  let cadence = (man.steps lor 0xFFFF) + 1 in
  if man.step_limit < cadence then man.step_limit + 1 else cadence

let set_step_limit man limit =
  man.step_limit <- limit;
  man.step_check <- next_step_check man

let step_slow_path man =
  if man.steps > man.step_limit then raise Node_budget_exhausted;
  man.step_check <- next_step_check man;
  if man.steps land 0xFFFF = 0 then
    match man.progress_hook with None -> () | Some hook -> hook man

(* Bump the operation-step counter.  Every memo-cache miss of every
   operator ticks exactly once, so [steps] equals the summed misses of
   [cache_stats].  One compare per step covers both the exact step
   limit and the progress hook, which runs at the same 64K cadence as
   node creation so budgets also catch computations that churn without
   creating nodes (pure cache-hit avalanches). *)
let tick man =
  man.steps <- man.steps + 1;
  (match man.fault_hook with None -> () | Some hook -> hook man);
  if man.steps >= man.step_check then step_slow_path man

let steps man = man.steps

(* O(1): the unique table maintains the counter.  Between [gc] sweeps
   it is an upper bound (nodes not yet observed dead are counted). *)
let live_nodes man =
  let live = Unique.live man.unique in
  if live > man.peak_live then man.peak_live <- live;
  live

let created_nodes man = man.created
let num_vars man = man.nvars

let gc man =
  man.gc_events <- man.gc_events + 1;
  Computed.clear man.computed;
  Gc.full_major ();
  Unique.sweep man.unique

let gc_events man = man.gc_events

(* Hot-path cache accounting; callers touch these on every memo-cache
   lookup, so they are bare stores. *)
let hit s = s.hits <- s.hits + 1
let miss s = s.misses <- s.misses + 1

(* (name, hits, misses) per memoised operator, fixed order. *)
let cache_stats man =
  [
    ("ite", man.stat_ite.hits, man.stat_ite.misses);
    ("and_exists", man.stat_and_exists.hits, man.stat_and_exists.misses);
    ("exists", man.stat_exists.hits, man.stat_exists.misses);
    ("restrict", man.stat_restrict.hits, man.stat_restrict.misses);
    ("constrain", man.stat_constrain.hits, man.stat_constrain.misses);
    ("cofactor", man.stat_cofactor.hits, man.stat_cofactor.misses);
    ("rename", man.stat_rename.hits, man.stat_rename.misses);
    ("vcompose", man.stat_vcompose.hits, man.stat_vcompose.misses);
  ]

let computed_table_stats man = Computed.stats man.computed
let unique_table_stats man = Unique.stats man.unique

(* Interning. [hi] must be a regular (uncomplemented) reference. *)
let intern man lvl lo lo_neg hi =
  let probe =
    { Repr.id = man.next_id; level = lvl; low = lo; low_neg = lo_neg;
      high = hi }
  in
  let found = Unique.merge man.unique probe in
  if found == probe then begin
    man.next_id <- man.next_id + 1;
    man.created <- man.created + 1;
    (match man.fault_hook with None -> () | Some hook -> hook man);
    (* The live counter is O(1), so the peak is seeded on every
       creation (short runs no longer report a peak of 0); the 64K
       cadence below only drives the progress hook (resource-limit
       checks that can interrupt a blown-up operation) and the budget
       check. *)
    let live = Unique.live man.unique in
    if live > man.peak_live then man.peak_live <- live;
    if man.created land 0xFFFF = 0 then begin
      maybe_trim_caches man;
      match man.progress_hook with None -> () | Some hook -> hook man
    end
  end;
  found

(* The canonicity rule for complement edges: if the THEN edge would be
   complemented, build the complemented node instead and return a
   complemented edge to it (node(v,l,h) = not node(v, not l, not h)). *)
let rec mk man lvl ~low ~high =
  if Repr.equal low high then low
  else if high.Repr.neg then
    Repr.neg (mk man lvl ~low:(Repr.neg low) ~high:(Repr.neg high))
  else begin
    assert (lvl < low.Repr.node.level && lvl < high.Repr.node.level);
    { Repr.node = intern man lvl low.Repr.node low.Repr.neg high.Repr.node;
      neg = false }
  end

(* [names] is a growable array: [nvars] is the logical length, the rest
   is spare capacity doubled on demand (wide models allocate thousands
   of variables, so per-variable reallocation would be quadratic). *)
let new_var ?name man =
  let lvl = man.nvars in
  man.nvars <- man.nvars + 1;
  let label = match name with Some s -> s | None -> Printf.sprintf "v%d" lvl in
  if man.nvars > Array.length man.names then begin
    let grown = Array.make (max 16 (2 * Array.length man.names)) "" in
    Array.blit man.names 0 grown 0 (Array.length man.names);
    man.names <- grown
  end;
  man.names.(lvl) <- label;
  lvl

let var_name man lvl =
  if lvl >= 0 && lvl < man.nvars then man.names.(lvl)
  else Printf.sprintf "v%d" lvl

(* The BDD for a single variable / its negation. *)
let var man lvl =
  assert (lvl >= 0 && lvl < man.nvars);
  mk man lvl ~low:Repr.fls ~high:Repr.tru

let nvar man lvl = Repr.neg (var man lvl)

let varset man levels =
  let levels = List.sort_uniq compare levels in
  match Hashtbl.find_opt man.varsets levels with
  | Some vs -> vs
  | None ->
    let arr = Array.of_list levels in
    let width = man.nvars in
    let member = Array.make (max width 1) false in
    Array.iter (fun l -> member.(l) <- true) arr;
    let vs = { vid = man.next_vid; levels = arr; member } in
    man.next_vid <- man.next_vid + 1;
    Hashtbl.add man.varsets levels vs;
    vs

let varset_mem vs lvl = lvl < Array.length vs.member && vs.member.(lvl)

let varset_max vs =
  let n = Array.length vs.levels in
  if n = 0 then -1 else vs.levels.(n - 1)

(* Intern a renaming permutation so it can serve as a memo key
   (structural hashing: int arrays hash and compare by contents). *)
let perm_id man perm =
  match Hashtbl.find_opt man.perms perm with
  | Some id -> id
  | None ->
    let id = man.next_perm_id in
    man.next_perm_id <- man.next_perm_id + 1;
    Hashtbl.add man.perms (Array.copy perm) id;
    id

let set_progress_hook man hook = man.progress_hook <- hook
let progress_hook man = man.progress_hook

(* Unlike the (sampled) progress hook, the fault hook is consulted on
   every recursion step and every node creation, so a hook keyed on
   [created] or [steps] fires at an exact, reproducible point.  Used by
   the resilience tests to inject deterministic budget blowups. *)
let set_fault_hook man hook = man.fault_hook <- hook

(* Intern a simultaneous-substitution vector (compared physically: the
   caller keeps the array alive -- and unmutated -- for the duration of
   its use). *)
let vcompose_id man subst =
  match Subst_tbl.find_opt man.vcomposes subst with
  | Some id -> id
  | None ->
    let id = man.next_vcompose_id in
    man.next_vcompose_id <- man.next_vcompose_id + 1;
    Subst_tbl.add man.vcomposes subst id;
    id

(* Run [f] with an exact step limit and an additional (chained)
   progress hook; [None] once more than [max_steps] non-cached
   recursion steps have run (checked on every step) or more than
   [max_new_nodes] nodes have been created (checked at the 64K
   progress cadence).  Hooks installed by an enclosing guard keep
   running, and an enclosing budget's exhaustion propagates past this
   one instead of reading as ours. *)
let with_node_budget ?(max_steps = max_int) ?(max_new_nodes = max_int) man f =
  let baseline = man.created in
  let limit =
    if max_steps > max_int - man.steps then max_int else man.steps + max_steps
  in
  let old_hook = man.progress_hook and old_limit = man.step_limit in
  let nodes_exceeded m = m.created - baseline > max_new_nodes in
  let hook m =
    (match old_hook with Some h -> h m | None -> ());
    if nodes_exceeded m then raise Node_budget_exhausted
  in
  man.progress_hook <- Some hook;
  set_step_limit man (min limit old_limit);
  Fun.protect
    ~finally:(fun () ->
      man.progress_hook <- old_hook;
      set_step_limit man old_limit)
    (fun () ->
      try Some (f ())
      with Node_budget_exhausted when man.steps > limit || nodes_exceeded man
      -> None)
