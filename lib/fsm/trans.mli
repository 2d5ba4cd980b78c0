(** Partitioned transition relations and image operators.

    A machine is specified by one next-state function per state bit
    (over current-state and input levels) plus an optional input
    constraint.  The monolithic transition relation is never built:
    [image] and [pre_image] interleave conjunction with early
    existential quantification; [back_image] is the universal image of
    the paper's Definition 1, computed as [not (pre_image (not z))]. *)

type t

val make :
  ?input_constraint:Bdd.t ->
  Space.t ->
  assigns:(Space.bit * Bdd.t) list ->
  t
(** Build a transition relation.  Every declared state bit must receive
    exactly one next-state function; raises [Invalid_argument]
    otherwise.  [input_constraint] restricts the legal inputs per state
    (default: true). *)

val space : t -> Space.t
val man : t -> Bdd.man

val assigns : t -> (Space.bit * Bdd.t) list
(** The per-bit next-state functions the relation was built from, in
    the order they were given to {!make} (used to reconstruct the
    machine in another manager). *)

val image : ?extra:Bdd.t list -> t -> Bdd.t -> Bdd.t
(** States reachable in one transition from [z].  The per-bit
    conjuncts are grouped into clusters of at most a few hundred nodes
    each, in schedule order, and every level is quantified right after
    the last cluster mentioning it.  The clusters and that schedule are
    built on the first call and kept in [t] for later calls.  [extra]
    conjoins further constraints on the source states into the
    quantification schedule, ahead of the clusters, without
    materialising the conjunction (used by the functional-dependency
    method). *)

val image_clusters : t -> int
(** Number of clusters [image] conjoins per call (builds them if no
    image has yet). *)

type image_via = [ `Auto | `Compose | `Relational ]
(** Backward-image computation method: substitute the next-state
    functions into the target ([`Compose]) or run the
    early-quantification relational product ([`Relational]).  Neither
    dominates.  The default [`Auto] chooses by the target: if some bit
    it reads has a next-state function that reads an input, composition
    runs first under a generous budget and the relational product is
    the fallback; on an input-free target composition gets only an
    exact step budget of [max 16384 (32 |z|)] before the relational
    product takes over.  The ablation benchmark compares all three. *)

val input_free : t -> Bdd.t -> bool
(** Whether every level [z] reads is a state bit whose next-state
    function reads no input level, so that composing [z] is a pure
    functional substitution.  This is what [`Auto] chooses by. *)

val pre_image : ?via:image_via -> t -> Bdd.t -> Bdd.t
(** States with at least one successor in [z]. *)

val back_image : ?via:image_via -> t -> Bdd.t -> Bdd.t
(** States all of whose successors are in [z]. *)

val is_total : t -> bool
(** Whether every state admits a legal input (required for the
    [back_image]/[pre_image] duality to be meaningful). *)

val successors_of_state : t -> bool array -> Bdd.t
(** Image of a single concrete state (assignment indexed by level);
    used when extracting counterexample traces. *)

val input_constraint : t -> Bdd.t

val legal_input : t -> bool array -> bool
(** Does the assignment (current-state + input levels) satisfy the
    input constraint? *)

val step : t -> bool array -> bool array
(** Concrete simulation step: evaluate every next-state function under
    the given current-state + input assignment and return the successor
    state (input levels cleared).  The assignment must be legal. *)
