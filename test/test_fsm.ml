(* FSM substrate tests.  The central check compares the symbolic image
   operators against explicit-state enumeration on randomly generated
   small machines, so Image / PreImage / BackImage semantics (paper
   Definition 1) are validated bit-for-bit. *)

let n_state = 3
let n_input = 2

(* A random machine: next-state expressions over 5 "variables"
   (3 current-state + 2 inputs), an input-constraint expression, and a
   target-set expression over the 3 state variables. *)
type machine_spec = {
  nexts : Testutil.expr array; (* length n_state *)
  constr : Testutil.expr;
  target : Testutil.expr; (* over state vars only *)
}

let gen_spec =
  let open QCheck2.Gen in
  let e = Testutil.gen_expr ~nvars:(n_state + n_input) in
  let es = Testutil.gen_expr ~nvars:n_state in
  map3
    (fun a (b, c) (d, t) ->
      { nexts = [| a; b; c |]; constr = d; target = t })
    e (pair e e) (pair e es)

let print_spec s =
  Format.asprintf "next0=%a next1=%a next2=%a constr=%a target=%a"
    Testutil.pp_expr s.nexts.(0) Testutil.pp_expr s.nexts.(1)
    Testutil.pp_expr s.nexts.(2) Testutil.pp_expr s.constr Testutil.pp_expr
    s.target

(* Build the symbolic machine.  Variable order: state bits first (their
   cur/next pairs), then inputs.  Expression variable i < n_state maps
   to state bit i's current level; i >= n_state maps to input i-n_state. *)
let build spec =
  let sp = Fsm.Space.create () in
  let bits = Array.init n_state (fun _ -> Fsm.Space.state_bit sp) in
  let inputs = Array.init n_input (fun _ -> Fsm.Space.input_bit sp) in
  let vars =
    Array.append
      (Array.map (fun (b : Fsm.Space.bit) -> b.cur) bits)
      inputs
  in
  let man = Fsm.Space.man sp in
  let assigns =
    List.init n_state (fun i ->
        (bits.(i), Testutil.build_bdd man vars spec.nexts.(i)))
  in
  let input_constraint = Testutil.build_bdd man vars spec.constr in
  let trans = Fsm.Trans.make ~input_constraint sp ~assigns in
  let state_vars = Array.sub vars 0 n_state in
  let target = Testutil.build_bdd man state_vars spec.target in
  (sp, man, bits, trans, target, vars)

(* Explicit-state reference semantics. *)
let explicit_successors spec s =
  let succs = ref [] in
  for inp = 0 to (1 lsl n_input) - 1 do
    let env =
      Array.init (n_state + n_input) (fun i ->
          if i < n_state then (s lsr i) land 1 = 1
          else (inp lsr (i - n_state)) land 1 = 1)
    in
    if Testutil.eval_expr env spec.constr then begin
      let s' = ref 0 in
      for b = 0 to n_state - 1 do
        if Testutil.eval_expr env spec.nexts.(b) then s' := !s' lor (1 lsl b)
      done;
      if not (List.mem !s' !succs) then succs := !s' :: !succs
    end
  done;
  !succs

let in_target spec s =
  let env = Array.init n_state (fun i -> (s lsr i) land 1 = 1) in
  Testutil.eval_expr env spec.target

(* Decode a symbolic state set over current levels into an int set. *)
let decode man bits set =
  List.filter
    (fun s ->
      let n = Bdd.num_vars man in
      let env = Array.make n false in
      Array.iteri
        (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (s lsr i) land 1 = 1)
        bits;
      Bdd.eval man env set)
    (List.init (1 lsl n_state) (fun s -> s))

let states_of_pred p = List.filter p (List.init (1 lsl n_state) (fun s -> s))

let prop_image spec =
  let _, man, bits, trans, target, _ = build spec in
  let z_states = states_of_pred (in_target spec) in
  let image = Fsm.Trans.image trans target in
  let expect =
    states_of_pred (fun s' ->
        List.exists (fun s -> List.mem s' (explicit_successors spec s)) z_states)
  in
  decode man bits image = expect

let prop_pre_image spec =
  let _, man, bits, trans, target, _ = build spec in
  let pre = Fsm.Trans.pre_image trans target in
  let expect =
    states_of_pred (fun s ->
        List.exists (in_target spec) (explicit_successors spec s))
  in
  decode man bits pre = expect

let prop_back_image spec =
  let _, man, bits, trans, target, _ = build spec in
  let back = Fsm.Trans.back_image trans target in
  let expect =
    states_of_pred (fun s ->
        List.for_all (in_target spec) (explicit_successors spec s))
  in
  decode man bits back = expect

let prop_image_methods_agree spec =
  (* The compose-based, relational and auto-chosen backward images must
     coincide. *)
  let _, _, _, trans, target, _ = build spec in
  let agree image =
    let expect = image `Relational in
    List.for_all (fun via -> Bdd.equal (image via) expect) [ `Compose; `Auto ]
  in
  agree (fun via -> Fsm.Trans.pre_image ~via trans target)
  && agree (fun via -> Fsm.Trans.back_image ~via trans target)

let prop_back_image_theorem1 spec =
  (* Theorem 1: BackImage distributes over conjunction. *)
  let _, man, _, trans, target, vars = build spec in
  let x0 = Bdd.var man vars.(0) in
  let a = Bdd.bor man target x0 in
  let b = Bdd.bor man target (Bdd.bnot man x0) in
  (* a /\ b = target \/ (x0 /\ ~x0) = target *)
  Bdd.equal
    (Fsm.Trans.back_image trans (Bdd.band man a b))
    (Bdd.band man (Fsm.Trans.back_image trans a) (Fsm.Trans.back_image trans b))

let prop_is_total spec =
  let _, _, _, trans, _, _ = build spec in
  let expect =
    List.for_all
      (fun s -> explicit_successors spec s <> [])
      (List.init (1 lsl n_state) (fun s -> s))
  in
  Fsm.Trans.is_total trans = expect

let prop_successors_of_state spec =
  let _, man, bits, trans, _, _ = build spec in
  List.for_all
    (fun s ->
      let n = Bdd.num_vars man in
      let env = Array.make n false in
      Array.iteri
        (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (s lsr i) land 1 = 1)
        bits;
      let succ = Fsm.Trans.successors_of_state trans env in
      List.sort compare (decode man bits succ)
      = List.sort compare (explicit_successors spec s))
    (List.init (1 lsl n_state) (fun s -> s))

let prop_step_in_image spec =
  (* Every concrete [Trans.step] successor lies in the symbolic image
     of its source state. *)
  let _, man, bits, trans, _, vars = build spec in
  List.for_all
    (fun s ->
      List.for_all
        (fun inp ->
          let env = Array.make (Bdd.num_vars man) false in
          Array.iteri
            (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (s lsr i) land 1 = 1)
            bits;
          for k = 0 to n_input - 1 do
            env.(vars.(n_state + k)) <- (inp lsr k) land 1 = 1
          done;
          (not (Fsm.Trans.legal_input trans env))
          ||
          let succ = Fsm.Trans.step trans env in
          let img = Fsm.Trans.successors_of_state trans env in
          Bdd.eval man succ img)
        (List.init (1 lsl n_input) Fun.id))
    (List.init (1 lsl n_state) Fun.id)

let prop_image_with_extra spec =
  (* image ~extra:[e] z = image (z /\ e) for constraints over current
     state -- the contract the FD method relies on. *)
  let _, man, _, trans, target, vars = build spec in
  let extra =
    Bdd.bor man (Bdd.var man vars.(1)) (Bdd.bnot man (Bdd.var man vars.(2)))
  in
  Bdd.equal
    (Fsm.Trans.image ~extra:[ extra ] trans target)
    (Fsm.Trans.image trans (Bdd.band man target extra))

(* --- unit tests on a tiny hand-built machine: a 2-bit counter that
   increments when the input says so. *)
let counter () =
  let sp = Fsm.Space.create () in
  let b0 = Fsm.Space.state_bit ~name:"c0" sp in
  let b1 = Fsm.Space.state_bit ~name:"c1" sp in
  let tick = Fsm.Space.input_bit ~name:"tick" sp in
  let man = Fsm.Space.man sp in
  let c0 = Bdd.var man b0.cur and c1 = Bdd.var man b1.cur in
  let t = Bdd.var man tick in
  let n0 = Bdd.bxor man c0 t in
  let n1 = Bdd.bxor man c1 (Bdd.band man c0 t) in
  let trans = Fsm.Trans.make sp ~assigns:[ (b0, n0); (b1, n1) ] in
  (sp, man, (b0, b1), trans)

let test_counter_image () =
  let _, man, (b0, b1), trans = counter () in
  (* From state 0 (c1c0=00) we can reach 0 (no tick) and 1 (tick). *)
  let zero =
    Bdd.band man (Bdd.nvar man b0.cur) (Bdd.nvar man b1.cur)
  in
  let img = Fsm.Trans.image trans zero in
  let expect =
    Bdd.bor man zero (Bdd.band man (Bdd.var man b0.cur) (Bdd.nvar man b1.cur))
  in
  Alcotest.(check bool) "image of {0} = {0,1}" true (Bdd.equal img expect)

let test_counter_total () =
  let _, _, _, trans = counter () in
  Alcotest.(check bool) "counter is total" true (Fsm.Trans.is_total trans)

let test_missing_assign_rejected () =
  let sp = Fsm.Space.create () in
  let b0 = Fsm.Space.state_bit sp in
  let _b1 = Fsm.Space.state_bit sp in
  let man = Fsm.Space.man sp in
  Alcotest.(check bool) "partial assignment rejected" true
    (try
       ignore (Fsm.Trans.make sp ~assigns:[ (b0, Bdd.tru man) ]);
       false
     with Invalid_argument _ -> true)

let test_interleaved_words () =
  let sp = Fsm.Space.create () in
  let words = Fsm.Space.interleaved_words sp ~count:3 ~width:2 in
  (* Bit 0 of all words allocated before bit 1 of any word. *)
  let max_bit0 =
    Array.fold_left (fun acc w -> max acc w.(0).Fsm.Space.cur) 0 words
  in
  let min_bit1 =
    Array.fold_left (fun acc w -> min acc w.(1).Fsm.Space.cur) max_int words
  in
  Alcotest.(check bool) "bit-slice major order" true (max_bit0 < min_bit1)

let test_cur_next_adjacent () =
  let sp = Fsm.Space.create () in
  let b = Fsm.Space.state_bit sp in
  Alcotest.(check int) "next level adjacent to cur" (b.cur + 1) b.next

(* --- clustered images on real models: each of these splits its
   per-bit conjuncts into several clusters, so the cached schedule is
   exercised across cluster boundaries. *)

let cluster_models () =
  [
    ("fifo-5", Models.Typed_fifo.make Models.Typed_fifo.default);
    ("network-3", Models.Network.make { Models.Network.procs = 3; bug = false });
    (* 4-bit samples keep the monolithic reference relation cheap. *)
    ( "filter-4",
      Models.Avg_filter.make
        { Models.Avg_filter.default with sample_width = 4 } );
  ]

(* A random state set: a union of random partial cubes over the
   current-state levels, joined with the initial states. *)
let random_states rng man levels init =
  let cube () =
    Bdd.conj man
      (List.filter_map
         (fun l ->
           match Random.State.int rng 4 with
           | 0 -> Some (Bdd.var man l)
           | 1 -> Some (Bdd.nvar man l)
           | _ -> None)
         levels)
  in
  Bdd.disj man (init :: List.init (1 + Random.State.int rng 4) (fun _ -> cube ()))

(* The monolithic definition the clusters must reproduce:
   rename(exists cur,inp. z /\ C /\ AND_b (n_b <-> f_b)). *)
let monolithic_image trans =
  let man = Fsm.Trans.man trans in
  let space = Fsm.Trans.space trans in
  let relation =
    Bdd.conj man
      (Fsm.Trans.input_constraint trans
      :: List.map
           (fun ((b : Fsm.Space.bit), f) ->
             Bdd.biff man (Bdd.var man b.Fsm.Space.next) f)
           (Fsm.Trans.assigns trans))
  in
  let quant =
    Bdd.varset man
      (Fsm.Space.current_levels space @ Fsm.Space.input_levels space)
  in
  fun z ->
    Bdd.rename man
      (Fsm.Space.next_to_cur_perm space)
      (Bdd.and_exists man quant z relation)

let test_clustered_image_vs_monolithic () =
  List.iter
    (fun (name, (m : Mc.Model.t)) ->
      let trans = m.Mc.Model.trans and man = Mc.Model.man m in
      let levels = Fsm.Space.current_levels m.Mc.Model.space in
      Alcotest.(check bool)
        (name ^ ": at least 3 clusters") true
        (Fsm.Trans.image_clusters trans >= 3);
      let mono = monolithic_image trans in
      let rng = Random.State.make [| 13 |] in
      for i = 1 to 8 do
        let z = random_states rng man levels m.Mc.Model.init in
        Alcotest.(check bool)
          (Printf.sprintf "%s: image of random set %d" name i)
          true
          (Bdd.equal (Fsm.Trans.image trans z) (mono z));
        let extra =
          List.init 2 (fun _ -> random_states rng man levels (Bdd.fls man))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: image ~extra of random set %d" name i)
          true
          (Bdd.equal
             (Fsm.Trans.image ~extra trans z)
             (mono (Bdd.conj man (z :: extra))))
      done)
    (cluster_models ())

let test_clustered_image_repeatable () =
  (* The first call builds and caches the clusters; the second reuses
     them and must give the same canonical result. *)
  List.iter
    (fun (name, (m : Mc.Model.t)) ->
      let trans = m.Mc.Model.trans and man = Mc.Model.man m in
      let rng = Random.State.make [| 7 |] in
      let z =
        random_states rng man
          (Fsm.Space.current_levels m.Mc.Model.space)
          m.Mc.Model.init
      in
      let first = Fsm.Trans.image trans z in
      Alcotest.(check bool) (name ^ ": second call equal") true
        (Bdd.equal first (Fsm.Trans.image trans z)))
    (cluster_models ())

let test_successors_of_state_vs_step () =
  (* Single-state images stay on the per-bit product; they must still
     match enumerating every legal input through [Trans.step]. *)
  List.iter
    (fun (name, (m : Mc.Model.t)) ->
      let trans = m.Mc.Model.trans and man = Mc.Model.man m in
      let space = m.Mc.Model.space in
      let cur = Fsm.Space.current_levels space in
      let inputs = Fsm.Space.input_levels space in
      let state = Bdd.pick_minterm man ~vars:cur m.Mc.Model.init in
      (* Cluster first, so the per-bit path is checked with the
         clusters built alongside it. *)
      ignore (Fsm.Trans.image trans m.Mc.Model.init);
      let expect = ref (Bdd.fls man) in
      for k = 0 to (1 lsl List.length inputs) - 1 do
        let env = Array.copy state in
        List.iteri (fun i l -> env.(l) <- (k lsr i) land 1 = 1) inputs;
        if Fsm.Trans.legal_input trans env then begin
          let succ = Fsm.Trans.step trans env in
          expect :=
            Bdd.bor man !expect
              (Bdd.conj man
                 (List.map
                    (fun l -> if succ.(l) then Bdd.var man l else Bdd.nvar man l)
                    cur))
        end
      done;
      Alcotest.(check bool) (name ^ ": successors = step enumeration") true
        (Bdd.equal (Fsm.Trans.successors_of_state trans state) !expect))
    (cluster_models ())

let qtest name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name ~print:print_spec gen_spec prop)

let () =
  Alcotest.run "fsm"
    [
      ( "unit",
        [
          Alcotest.test_case "counter image" `Quick test_counter_image;
          Alcotest.test_case "counter totality" `Quick test_counter_total;
          Alcotest.test_case "partial assigns rejected" `Quick
            test_missing_assign_rejected;
          Alcotest.test_case "interleaved allocation" `Quick
            test_interleaved_words;
          Alcotest.test_case "cur/next adjacency" `Quick
            test_cur_next_adjacent;
        ] );
      ( "clustered image",
        [
          Alcotest.test_case "equals the monolithic image" `Quick
            test_clustered_image_vs_monolithic;
          Alcotest.test_case "cached clusters repeat" `Quick
            test_clustered_image_repeatable;
          Alcotest.test_case "successors_of_state vs step" `Quick
            test_successors_of_state_vs_step;
        ] );
      ( "vs explicit-state",
        [
          qtest "image" prop_image;
          qtest "pre_image" prop_pre_image;
          qtest "back_image" prop_back_image;
          qtest "theorem 1 (backimage distributes)" prop_back_image_theorem1;
          qtest "compose vs relational images" prop_image_methods_agree;
          qtest "is_total" prop_is_total;
          qtest "successors_of_state" prop_successors_of_state;
          qtest "image with extra conjuncts" prop_image_with_extra;
          qtest "concrete step lies in symbolic image" prop_step_in_image;
        ] );
    ]
