(** Tautology-checker and BDD-operator fuzz targets.

    Both targets compare against brute-force truth-table evaluation of
    the generating expressions — a reference that never touches a BDD.
    {!check_tautology} covers [Ici.Tautology.check] under all three
    variable-choice heuristics x memo x simplify and the
    fuel-exhaustion-retry path; {!check_ops} covers the core BDD
    operators (implies, equal, bounded conjunction, Restrict, Constrain,
    multi-restrict, quantification, relational product), and
    {!check_band_bound} the node bound of {!Bdd.band_bounded}. *)

val nvars : int

val gen_list : Expr.t list QCheck2.Gen.t
val gen_pair : (Expr.t * Expr.t) QCheck2.Gen.t

val print_list : Expr.t list -> string
val print_pair : Expr.t * Expr.t -> string

val check_tautology : Expr.t list -> (unit, string) result
val check_ops : Expr.t * Expr.t -> (unit, string) result

val gen_bound : (Expr.t * Expr.t * int) QCheck2.Gen.t
val print_bound : Expr.t * Expr.t * int -> string

val check_band_bound : Expr.t * Expr.t * int -> (unit, string) result
(** [band_bounded ~max_nodes ~max_steps:max_int] with [max_nodes] the
    conjunction's internal node count plus the case's slack: [Some r]
    must be the conjunction, and [None] is allowed only when the
    conjunction has more than [max_nodes] internal nodes. *)
