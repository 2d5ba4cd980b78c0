(* Tautology-checker and BDD-operator fuzzing against brute-force
   truth-table evaluation of the generating expressions.

   The reference never touches a BDD: expressions are evaluated
   concretely over every assignment, so these targets check the whole
   pipeline (node construction, the Boolean connectives, Restrict /
   Constrain, quantification, and the Section III.B exact termination
   test under all three variable-choice heuristics x memo x simplify,
   including recovery after fuel exhaustion). *)

let nvars = 5

let gen_list =
  QCheck2.Gen.(list_size (int_range 1 6) (Expr.gen_expr ~nvars))

let gen_pair = QCheck2.Gen.pair (Expr.gen_expr ~nvars) (Expr.gen_expr ~nvars)

let print_list es = String.concat " \\/ " (List.map Expr.to_string es)

let print_pair (a, b) = Expr.to_string a ^ " // " ^ Expr.to_string b

let envs = lazy (Expr.all_envs nvars)

(* fresh_man allocates levels 0..nvars-1 in variable order, so
   assignments indexed by variable number are directly usable as
   assignments indexed by level. *)
let build es =
  let man, vars = Expr.fresh_man nvars in
  (man, List.map (Expr.build_bdd man vars) es)

let var_choices =
  [ Ici.Tautology.First_top; Ici.Tautology.Lowest_level;
    Ici.Tautology.Most_common ]

(* --- the implicit-disjunction tautology target ------------------------ *)

let check_tautology es =
  let man, ds = build es in
  (* Node construction and connectives vs the truth table. *)
  let op_bug =
    List.find_opt
      (fun (e, d) ->
        List.exists
          (fun env -> Bdd.eval man env d <> Expr.eval_expr env e)
          (Lazy.force envs))
      (List.combine es ds)
  in
  match op_bug with
  | Some (e, _) ->
    Error
      (Printf.sprintf "BDD construction disagrees with the truth table on %s"
         (Expr.to_string e))
  | None ->
    let reference =
      List.for_all
        (fun env -> List.exists (fun e -> Expr.eval_expr env e) es)
        (Lazy.force envs)
    in
    let mismatch =
      List.find_map
        (fun var_choice ->
          List.find_map
            (fun simplify ->
              List.find_map
                (fun memo ->
                  if
                    Ici.Tautology.check ~var_choice ~simplify ~memo man ds
                    = reference
                  then None
                  else
                    Some
                      (Printf.sprintf
                         "var_choice=%d simplify=%b memo=%b disagrees with \
                          the truth table"
                         (match var_choice with
                         | Ici.Tautology.First_top -> 0
                         | Ici.Tautology.Lowest_level -> 1
                         | Ici.Tautology.Most_common -> 2)
                         simplify memo))
                [ true; false ])
            [ true; false ])
        var_choices
    in
    (match mismatch with
    | Some m -> Error m
    | None ->
      (* Fuel-exhaustion retry: starving the checker and re-running with
         more fuel must converge to the same answer (exhaustion must not
         poison any cached state).  The retries share a caller-held memo
         table, so each one resumes from the verdicts the starved
         attempts already settled -- which is also what the production
         retry loops do. *)
      let memo_table = Ici.Tautology.create_memo () in
      let rec with_fuel fuel =
        if fuel > 1 lsl 24 then
          Error "tautology check still out of fuel at 2^24 expansions"
        else
          match
            Ici.Tautology.check ~simplify:false ~fuel ~memo_table man ds
          with
          | v -> Ok v
          | exception Ici.Tautology.Out_of_fuel -> with_fuel (fuel * 8)
      in
      (match with_fuel 1 with
      | Error _ as e -> e
      | Ok v when v <> reference ->
        Error "fuel-exhaustion retry converged to the wrong verdict"
      | Ok _ ->
        if Ici.Tautology.check man ds <> reference then
          Error "full-fuel re-check after exhaustion is wrong"
        else Ok ()))

(* --- core BDD operators vs truth tables ------------------------------- *)

let check_ops (ea, eb) =
  let man, fs = build [ ea; eb ] in
  let f, g = match fs with [ f; g ] -> (f, g) | _ -> assert false in
  let eval_a env = Expr.eval_expr env ea
  and eval_b env = Expr.eval_expr env eb in
  let forall_envs p = List.for_all p (Lazy.force envs) in
  let check_named checks =
    List.find_map (fun (name, ok) -> if ok () then None else Some name) checks
  in
  let quant_envs env lvls =
    (* All assignments agreeing with [env] outside [lvls]. *)
    List.fold_left
      (fun acc l ->
        List.concat_map
          (fun e ->
            let e0 = Array.copy e and e1 = Array.copy e in
            e0.(l) <- false;
            e1.(l) <- true;
            [ e0; e1 ])
          acc)
      [ Array.copy env ] lvls
  in
  let qlvls = [ 0; 2 ] in
  let vs = Bdd.varset man qlvls in
  let bad =
    check_named
      [
        ( "implies",
          fun () ->
            Bdd.implies man f g
            = forall_envs (fun env -> (not (eval_a env)) || eval_b env) );
        ( "equal",
          fun () ->
            Bdd.equal f g = forall_envs (fun env -> eval_a env = eval_b env)
        );
        ( "band_bounded agrees with band",
          fun () ->
            match Bdd.band_bounded man ~max_steps:max_int f g with
            | Some p -> Bdd.equal p (Bdd.band man f g)
            | None -> false );
        ( "restrict",
          fun () ->
            Bdd.is_false g
            || forall_envs (fun env ->
                   (not (eval_b env))
                   || Bdd.eval man env (Bdd.restrict man f g) = eval_a env) );
        ( "constrain",
          fun () ->
            Bdd.is_false g
            || forall_envs (fun env ->
                   (not (eval_b env))
                   || Bdd.eval man env (Bdd.constrain man f g) = eval_a env) );
        ( "multi_restrict",
          fun () ->
            Bdd.is_false g || Bdd.is_false f
            || forall_envs (fun env ->
                   (not (eval_b env && eval_a env))
                   || Bdd.eval man env (Bdd.multi_restrict man f [ g; f ])) );
        ( "exists",
          fun () ->
            let ex = Bdd.exists man vs f in
            forall_envs (fun env ->
                Bdd.eval man env ex
                = List.exists eval_a (quant_envs env qlvls)) );
        ( "forall",
          fun () ->
            let fa = Bdd.forall man vs f in
            forall_envs (fun env ->
                Bdd.eval man env fa
                = List.for_all eval_a (quant_envs env qlvls)) );
        ( "and_exists",
          fun () ->
            let ae = Bdd.and_exists man vs f g in
            forall_envs (fun env ->
                Bdd.eval man env ae
                = List.exists
                    (fun e -> eval_a e && eval_b e)
                    (quant_envs env qlvls)) );
      ]
  in
  match bad with
  | None -> Ok ()
  | Some name -> Error (name ^ " disagrees with the truth table")

(* --- node-bounded conjunction ----------------------------------------- *)

(* Cases are two expressions and a slack: the bound is the
   conjunction's internal node count plus the slack, so every case sits
   next to the boundary where [band_bounded] must switch from giving up
   to completing. *)
let gen_bound =
  QCheck2.Gen.(
    triple (Expr.gen_expr ~nvars) (Expr.gen_expr ~nvars) (int_range (-3) 2))

let print_bound (a, b, slack) =
  Printf.sprintf "%s // slack=%d" (print_pair (a, b)) slack

(* [band_bounded ~max_nodes] against the truth table: a completed call
   returns the conjunction, and a call that gives up does so only on a
   conjunction with more than [max_nodes] internal nodes.  The bound is
   sized in a separate manager and the bounded call runs first in a
   fresh one, so every node of its result is created by it. *)
let check_band_bound (ea, eb, slack) =
  let internal =
    let man, fs = build [ ea; eb ] in
    Bdd.size (Bdd.conj man fs) - 1
  in
  let max_nodes = max 0 (internal + slack) in
  let man, fs = build [ ea; eb ] in
  let f, g = match fs with [ f; g ] -> (f, g) | _ -> assert false in
  let bounded = Bdd.band_bounded man ~max_nodes ~max_steps:max_int f g in
  let conj = Bdd.band man f g in
  if
    not
      (List.for_all
         (fun env ->
           Bdd.eval man env conj
           = (Expr.eval_expr env ea && Expr.eval_expr env eb))
         (Lazy.force envs))
  then Error "band disagrees with the truth table"
  else
    match bounded with
    | Some r when Bdd.equal r conj -> Ok ()
    | Some _ -> Error "band_bounded ~max_nodes returned a different conjunction"
    | None when internal > max_nodes -> Ok ()
    | None ->
      Error
        (Printf.sprintf
           "band_bounded ~max_nodes:%d gave up on a %d-node conjunction"
           max_nodes (Bdd.size conj))
