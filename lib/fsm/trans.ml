(* Partitioned transition relations and the image operators of the
   paper's Section II (Definition 1).

   The machine is deterministic given its inputs: every state bit b has
   exactly one next-state function f_b over current-state and input
   levels, giving the conjunct (b' <-> f_b).  Nondeterminism comes from
   free input variables, optionally restricted by an input constraint
   C(state, inputs); C must leave at least one legal input in every
   state for the transition relation to be total (checked by
   [is_total]).

   Images never build the monolithic relation: they interleave
   conjunction with existential quantification (early quantification in
   the style of Burch-Clarke-Long), quantifying each variable right
   after the last conjunct mentioning it.

   Set images ([image]) run over clusters rather than single bits: the
   per-bit conjuncts, taken in schedule order, are conjoined greedily
   while a cluster stays within [cluster_bound] nodes, so each image
   makes one [and_exists] pass over the source set per cluster instead
   of per state bit.  The clusters and the levels due after each of
   them are built on the first [image] call and kept in the [t], so
   building a relation costs nothing extra.  Single-state images
   ([successors_of_state]) keep the per-bit product: building the
   clusters would cost a short counterexample run several times its
   whole image work.  So does the relational pre-image, whose [`Auto]
   probe budgets below were tuned against it. *)

type conjunct = {
  relation : Bdd.t; (* next <-> f, or an extra relational constraint *)
  supp : int list;
}

(* A quantification schedule: conjoin the parts, quantify [first],
   then for each step [(c, vs)] conjoin [c] and quantify [vs]. *)
type schedule = { first : Bdd.varset; steps : (Bdd.t * Bdd.varset) list }

type t = {
  space : Space.t;
  assigns : (Space.bit * Bdd.t) list; (* per-bit next-state functions *)
  conjuncts : conjunct list; (* in quantification-schedule order *)
  input_constraint : Bdd.t;
  forward_quant : Bdd.varset; (* current-state + input levels *)
  backward_quant : Bdd.varset; (* next-state + input levels *)
  input_quant : Bdd.varset;
  subst : Bdd.t option array; (* cur level -> its next-state function *)
  input_free : bool array;
      (* cur level -> its next-state function reads no input level *)
  next_to_cur : int array;
  cur_to_next : int array;
  mutable clusters : schedule option; (* built by the first [image] *)
}

type image_via = [ `Auto | `Compose | `Relational ]

let space t = t.space
let man t = Space.man t.space
let assigns t = t.assigns

let make ?input_constraint space ~assigns =
  let man = Space.man space in
  let declared = Space.state_bits space in
  let assigned = List.map (fun (b, _) -> b) assigns in
  if List.length declared <> List.length assigns
     || not (List.for_all (fun b -> List.memq b assigned) declared)
  then
    invalid_arg
      "Trans.make: every declared state bit needs exactly one next-state \
       function";
  let conjuncts =
    List.map
      (fun ((b : Space.bit), f) ->
        let relation = Bdd.biff man (Bdd.var man b.Space.next) f in
        { relation; supp = Bdd.support relation })
      assigns
  in
  let input_constraint =
    match input_constraint with None -> Bdd.tru man | Some c -> c
  in
  let subst = Array.make (max 1 (Bdd.num_vars man)) None in
  let input_free = Array.make (Array.length subst) false in
  let is_input = Array.make (Array.length subst) false in
  List.iter (fun l -> is_input.(l) <- true) (Space.input_levels space);
  (* A relation's support is its function's plus the next-state level,
     which is no input. *)
  List.iter2
    (fun ((b : Space.bit), f) c ->
      subst.(b.Space.cur) <- Some f;
      input_free.(b.Space.cur) <-
        not (List.exists (fun l -> is_input.(l)) c.supp))
    assigns conjuncts;
  {
    space;
    assigns;
    conjuncts;
    input_constraint;
    forward_quant =
      Bdd.varset man (Space.current_levels space @ Space.input_levels space);
    backward_quant =
      Bdd.varset man (Space.next_levels space @ Space.input_levels space);
    input_quant = Bdd.varset man (Space.input_levels space);
    subst;
    input_free;
    next_to_cur = Space.next_to_cur_perm space;
    cur_to_next = Space.cur_to_next_perm space;
    clusters = None;
  }

(* The early-quantification schedule of [conjuncts]: every level of
   [quant] is quantified right after the last conjunct mentioning it. *)
let schedule man ~quant conjuncts =
  let quantifiable = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace quantifiable l 0) (Bdd.varset_levels quant);
  (* Last conjunct index (1-based) mentioning each quantifiable level. *)
  List.iteri
    (fun j c ->
      List.iter
        (fun l ->
          if Hashtbl.mem quantifiable l then Hashtbl.replace quantifiable l (j + 1))
        c.supp)
    conjuncts;
  let due = Array.make (List.length conjuncts + 1) [] in
  Hashtbl.iter (fun l j -> due.(j) <- l :: due.(j)) quantifiable;
  {
    first = Bdd.varset man due.(0);
    steps =
      List.mapi (fun j c -> (c.relation, Bdd.varset man due.(j + 1))) conjuncts;
  }

let run_schedule man s parts =
  List.fold_left
    (fun acc (c, vs) -> Bdd.and_exists man vs acc c)
    (Bdd.exists man s.first (Bdd.conj man parts))
    s.steps

(* Conjoin [parts] with the transition conjuncts, existentially
   quantifying every level of [quant] as soon as no remaining conjunct
   mentions it. *)
let relational_product man ~quant ~conjuncts parts =
  run_schedule man (schedule man ~quant conjuncts) parts

(* Clusters are capped at this many nodes.  On fifo-9 Fwd, bounds from
   30 to 300 all roughly halve the nodes created against per-bit
   conjuncts; by 1000 the clusters themselves grow and the gain
   shrinks, and 5000 is worse than no clustering. *)
let cluster_bound = 256

(* Greedy clustering in schedule order: conjoin each conjunct into the
   current cluster while the result stays within [cluster_bound]
   nodes, otherwise start a new cluster. *)
let cluster man = function
  | [] -> []
  | c0 :: rest ->
    let closed, last =
      List.fold_left
        (fun (closed, k) c ->
          let joined = Bdd.band man k.relation c.relation in
          if Bdd.size joined <= cluster_bound then
            ( closed,
              {
                relation = joined;
                supp = List.sort_uniq compare (k.supp @ c.supp);
              } )
          else (k :: closed, c))
        ([], c0) rest
    in
    List.rev (last :: closed)

let clusters t =
  match t.clusters with
  | Some s -> s
  | None ->
    let man = man t in
    let s = schedule man ~quant:t.forward_quant (cluster man t.conjuncts) in
    t.clusters <- Some s;
    s

(* [extra] lets callers conjoin additional constraints over current-state
   variables into the quantification schedule without ever building the
   full conjunction -- the functional-dependency method feeds its
   dependency relations (v <-> f_v) through here.  They run ahead of
   the clusters, so they only decide when the levels no cluster reads
   (the cached schedule's [first]) are quantified. *)
let image ?(extra = []) t z =
  let man = man t in
  let c = clusters t in
  let e =
    schedule man ~quant:c.first
      (List.map (fun f -> { relation = f; supp = Bdd.support f }) extra)
  in
  let shifted =
    run_schedule man
      { e with steps = e.steps @ c.steps }
      [ z; t.input_constraint ]
  in
  Bdd.rename man t.next_to_cur shifted

let image_clusters t = List.length (clusters t).steps

(* PreImage.  The [`Compose] path substitutes the next-state functions
   directly into Z ([Bdd.vector_compose]) and quantifies the inputs:
   PreImage(delta, Z) = exists inp [C /\ Z(f(s, inp))].  The
   [`Relational] path runs the early-quantification relational product.
   All paths compute the same set (tested against each other and
   against explicit-state enumeration); [pre_image] below explains how
   [`Auto] picks one. *)
let pre_image_compose t z =
  let man = man t in
  let zf = Bdd.vector_compose man t.subst z in
  Bdd.and_exists man t.input_quant t.input_constraint zf

let pre_image_relational t z =
  let man = man t in
  let z' = Bdd.rename man t.cur_to_next z in
  (* Only the conjuncts for bits in the support of [z'] matter: the
     machine is deterministic and total per bit, so for any other bit
     exists n_i (n_i <-> f_i) is TRUE and the conjunct drops out.  This
     is what makes BackImage of a small conjunct cheap (Theorem 1's
     whole point). *)
  let support = Bdd.support z' in
  let conjuncts =
    (* assigns and conjuncts were built in the same order *)
    List.filter_map
      (fun (((b : Space.bit), _), c) ->
        if List.mem b.Space.next support then Some c else None)
      (List.combine t.assigns t.conjuncts)
  in
  relational_product man ~quant:t.backward_quant ~conjuncts
    [ z'; t.input_constraint ]

(* Whether no state bit read by [z] has a next-state function that
   reads an input level.  Composing such a [z] is a pure functional
   substitution with no input left to quantify. *)
let input_free t z =
  List.for_all
    (fun l -> l < Array.length t.input_free && t.input_free.(l))
    (Bdd.support z)

(* Neither strategy dominates, so [`Auto] chooses by the input use of
   the target.  Where the next-state functions read inputs, the
   relational product can be catastrophic (network-6 Bkwd: more than 6M
   steps against 1.2M for composition), so composition runs first under
   a generous budget and the relational product is the fallback.  On an
   input-free target composition can still go superlinear (the filter
   family's adder chains) while the relational product stays cheap, so
   composition only gets an exact probe of 32 steps per node of z, and
   the relational product runs once the probe gives up.  The 16K floor
   lets small targets finish composing: filter-4's 70-node target
   needs 9.7K steps. *)
let pre_image ?(via = `Auto) t z =
  match via with
  | `Compose -> pre_image_compose t z
  | `Relational -> pre_image_relational t z
  | `Auto ->
    let man = man t in
    let size = Bdd.size z in
    let probe =
      if input_free t z then
        Bdd.with_node_budget man ~max_steps:(max 16384 (32 * size)) (fun () ->
            pre_image_compose t z)
      else
        Bdd.with_node_budget man ~max_new_nodes:(1_000_000 + (64 * size))
          ~max_steps:(4_000_000 + (256 * size)) (fun () ->
            pre_image_compose t z)
    in
    (match probe with Some r -> r | None -> pre_image_relational t z)

(* BackImage(delta, Z) = not PreImage(delta, not Z): the states all of
   whose successors lie in Z (Definition 1 / Theorem 1 of the paper). *)
let back_image ?via t z =
  Bdd.bnot (man t) (pre_image ?via t (Bdd.bnot (man t) z))

(* Totality: every state admits at least one legal input.  Necessary for
   the PreImage/BackImage duality to mean what the paper intends. *)
let is_total t =
  let man = man t in
  let inputs = Bdd.varset man (Space.input_levels t.space) in
  Bdd.is_true (Bdd.exists man inputs t.input_constraint)

(* Successors of one concrete state: used for counterexample traces.
   Runs the per-bit product, not [image]'s clusters (see the header). *)
let successors_of_state t env =
  let man = man t in
  let cube =
    Bdd.conj man
      (List.map
         (fun l -> if env.(l) then Bdd.var man l else Bdd.nvar man l)
         (Space.current_levels t.space))
  in
  Bdd.rename man t.next_to_cur
    (relational_product man ~quant:t.forward_quant ~conjuncts:t.conjuncts
       [ cube; t.input_constraint ])

let input_constraint t = t.input_constraint

(* Concrete simulation against the same next-state functions the
   symbolic images use: lets test suites and applications cross-check
   symbolic results against hand-written reference models. *)
let legal_input t env = Bdd.eval (man t) env t.input_constraint

let step t env =
  assert (legal_input t env);
  let man = man t in
  let env' = Array.copy env in
  List.iter
    (fun ((b : Space.bit), f) -> env'.(b.Space.cur) <- Bdd.eval man env f)
    t.assigns;
  (* Inputs and next-levels are dead in the successor assignment. *)
  List.iter (fun l -> env'.(l) <- false) (Space.input_levels t.space);
  env'
