(* Boolean connectives, all built on a single memoised if-then-else.

   The ITE normalisation below follows Brace-Rudell-Bryant: terminal
   cases first, then rewrite so that the test edge is regular and the
   first branch is regular, which maximises cache hits and lets one
   cache entry serve an operation and its complement.

   Memoisation goes through the shared lossy computed table: the key is
   the packed (op, tag, tag, tag) quadruple, a hit is four int compares
   and a miss allocates nothing (the [absent] sentinel is compared
   physically). *)

open Repr

let rec ite man f g h =
  (* Terminal cases. *)
  if is_true f then g
  else if is_false f then h
  else if equal g h then g
  else if is_true g && is_false h then f
  else if is_false g && is_true h then neg f
  else if equal f g then ite man f tru h (* f ? f : h  =  f \/ h *)
  else if equal f (neg g) then ite man f fls h
  else if equal f h then ite man f g fls
  else if equal f (neg h) then ite man f g tru
  else if f.neg then ite man (neg f) h g
  else if g.neg then neg (ite man f (neg g) (neg h))
  else begin
    let cache = man.Man.computed in
    let a = tag f and b = tag g and c = tag h in
    let r = Computed.find cache Computed.op_ite a b c in
    if r != Computed.absent then begin
      Man.hit man.Man.stat_ite;
      r
    end
    else begin
      Man.miss man.Man.stat_ite;
      Man.tick man;
      let v = min (level f) (min (level g) (level h)) in
      let f0, f1 = cofactors f v in
      let g0, g1 = cofactors g v in
      let h0, h1 = cofactors h v in
      let lo = ite man f0 g0 h0 in
      let hi = ite man f1 g1 h1 in
      let r = Man.mk man v ~low:lo ~high:hi in
      Computed.store cache Computed.op_ite a b c r;
      r
    end
  end

let band man f g = ite man f g fls

exception Step_budget_exhausted

(* AND with a recursion-step budget: returns [None] if the computation
   needs more than [max_steps] non-cached recursive calls, or creates
   more than [max_nodes] nodes.  This is the "compute the size of a
   result without building it / abort if it exceeds a bound" capability
   the paper lists as future work; the greedy evaluation policy uses it
   to skip hopeless pairwise conjunctions.  The node bound is a bound
   on the result: every node this call creates is the memoised result
   of one of its sub-calls, and every sub-result is reachable from the
   final result, so creating more than [max_nodes] nodes proves the
   result has more than [max_nodes] internal nodes.  Results live under
   their own op tag ([op_band]) so completed sub-results are shared
   across calls, aborted ones included; hits and misses are accounted
   to the "ite" statistic it conceptually belongs to.  Its steps tick
   the manager like any other operator's, so enclosing budgets,
   deadlines and cancellation reach it too. *)
let band_bounded man ?(max_nodes = max_int) ~max_steps f g =
  let cache = man.Man.computed in
  let start = man.Man.steps and created = man.Man.created in
  let rec go f g =
    if is_false f || is_false g then fls
    else if is_true f then g
    else if is_true g then f
    else if equal f g then f
    else if equal f (neg g) then fls
    else begin
      let f, g = if tag f <= tag g then (f, g) else (g, f) in
      let a = tag f and b = tag g in
      let r = Computed.find cache Computed.op_band a b 0 in
      if r != Computed.absent then begin
        Man.hit man.Man.stat_ite;
        r
      end
      else begin
        Man.miss man.Man.stat_ite;
        Man.tick man;
        if man.Man.steps - start > max_steps then raise Step_budget_exhausted;
        let v = min (level f) (level g) in
        let f0, f1 = cofactors f v in
        let g0, g1 = cofactors g v in
        let r = Man.mk man v ~low:(go f0 g0) ~high:(go f1 g1) in
        Computed.store cache Computed.op_band a b 0 r;
        if man.Man.created - created > max_nodes then
          raise Step_budget_exhausted;
        r
      end
    end
  in
  try Some (go f g) with Step_budget_exhausted -> None
let bor man f g = ite man f tru g
let bxor man f g = ite man f (neg g) g
let biff man f g = ite man f g (neg g)
let bimp man f g = ite man f g tru
let bnand man f g = neg (band man f g)
let bnor man f g = neg (bor man f g)

let conj man = List.fold_left (band man) tru
let disj man = List.fold_left (bor man) fls

(* f => g as a decision procedure: no new nodes beyond the AND. *)
let implies man f g = is_false (band man f (neg g))

(* Restriction of [f] by fixing the variable at [lvl] to [value]. *)
let cofactor man ~lvl ~value f =
  let cache = man.Man.computed in
  let key_base = (lvl * 2) + Bool.to_int value in
  let rec go f =
    if level f > lvl then f
    else if level f = lvl then
      let f0, f1 = cofactors f lvl in
      if value then f1 else f0
    else begin
      let b = tag f in
      let r = Computed.find cache Computed.op_cofactor key_base b 0 in
      if r != Computed.absent then begin
        Man.hit man.Man.stat_cofactor;
        r
      end
      else begin
        Man.miss man.Man.stat_cofactor;
        Man.tick man;
        let v = level f in
        let f0, f1 = cofactors f v in
        let r = Man.mk man v ~low:(go f0) ~high:(go f1) in
        Computed.store cache Computed.op_cofactor key_base b 0 r;
        r
      end
    end
  in
  go f

(* Substitute the function [by] for the variable at [lvl] in [f]. *)
let compose man ~lvl ~by f =
  let f1 = cofactor man ~lvl ~value:true f in
  let f0 = cofactor man ~lvl ~value:false f in
  ite man by f1 f0

(* Simultaneous substitution: variable at level v becomes [subst.(v)]
   ([None] keeps the variable).  Substitution is simultaneous: the
   substituted functions read the ORIGINAL variable values, so mutually
   dependent substitutions (e.g. a swap) behave correctly.  Memoised per
   interned substitution vector.  This is how PreImage/BackImage of a
   deterministic machine avoids the relational product entirely. *)
let vector_compose man subst f =
  let cache = man.Man.computed in
  let sid = Man.vcompose_id man subst in
  let rec go f =
    if is_const f then f
    else begin
      let b = tag f in
      let r = Computed.find cache Computed.op_vcompose sid b 0 in
      if r != Computed.absent then begin
        Man.hit man.Man.stat_vcompose;
        r
      end
      else begin
        Man.miss man.Man.stat_vcompose;
        Man.tick man;
        let v = level f in
        let f0, f1 = cofactors f v in
        let lo = go f0 and hi = go f1 in
        let g =
          match if v < Array.length subst then subst.(v) else None with
          | Some g -> g
          | None -> Man.var man v
        in
        let r = ite man g hi lo in
        Computed.store cache Computed.op_vcompose sid b 0 r;
        r
      end
    end
  in
  go f
