(* Variable renaming by a level permutation that is order-preserving on
   the support of the argument (the common case: mapping next-state
   variables back onto their interleaved current-state partners).  Under
   that precondition a single structural pass suffices. *)

open Repr

exception Not_monotone

let rename man perm f =
  let cache = man.Man.computed in
  let pid = Man.perm_id man perm in
  let map lvl = if lvl < Array.length perm then perm.(lvl) else lvl in
  let rec go bound f =
    if is_const f then f
    else begin
      let b = tag f in
      let r = Computed.find cache Computed.op_rename pid b 0 in
      if r != Computed.absent then begin
        Man.hit man.Man.stat_rename;
        if level r <> terminal_level && level r <= bound then
          raise Not_monotone;
        r
      end
      else begin
        Man.miss man.Man.stat_rename;
        Man.tick man;
        let v = level f in
        let v' = map v in
        if v' <= bound then raise Not_monotone;
        let f0, f1 = cofactors f v in
        let r = Man.mk man v' ~low:(go v' f0) ~high:(go v' f1) in
        Computed.store cache Computed.op_rename pid b 0 r;
        r
      end
    end
  in
  go (-1) f
