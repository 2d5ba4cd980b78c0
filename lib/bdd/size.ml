(* Size accounting, support and model counting.

   [size_list] measures a whole implicit conjunction at once, counting
   shared nodes a single time -- this is the BDDSize(Xi, Xj) of the
   paper's evaluation heuristic (Figure 1), where node sharing between
   conjuncts must be taken into account. *)

open Repr

(* The visited set shared by [size_list] and [support_list]: an
   open-addressed table of node ids, one per domain, reused by every
   traversal.  Slot [i] is the pair (stamp, id) at [slots.(2i)] and
   [slots.(2i+1)]; it is occupied in the current traversal iff its
   stamp equals [gen], so starting a traversal is a generation bump,
   not a clear.  Nothing is allocated per visited node and nothing is
   hashed polymorphically; the table doubles when half full, so its
   size tracks the largest traversal this domain has made.  Node ids
   are unique only within a manager, which is all one traversal
   needs.  Traversals never call out, so they never nest. *)
type visited = {
  mutable slots : int array;
  mutable mask : int;           (* slot count - 1 *)
  mutable count : int;          (* ids stamped [gen] *)
  mutable gen : int;            (* stamps start at 0, [gen] at 1 *)
  mutable level_stamp : int array;
      (* [support_list]: level [l] is in the support iff
         [level_stamp.(l) = gen] *)
}

let initial_slots = 1024

let visited_key =
  Domain.DLS.new_key (fun () ->
      { slots = Array.make (2 * initial_slots) 0; mask = initial_slots - 1;
        count = 0; gen = 0; level_stamp = [||] })

(* Fibonacci hashing: ids are near-consecutive, so mix them before
   masking. *)
let slot_of id mask =
  let h = id * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* Stamp [id]; [true] iff it was not yet visited in this traversal. *)
let rec probe v id i =
  let s = v.slots in
  let k = 2 * i in
  if Array.unsafe_get s k <> v.gen then begin
    Array.unsafe_set s k v.gen;
    Array.unsafe_set s (k + 1) id;
    v.count <- v.count + 1;
    true
  end
  else if Array.unsafe_get s (k + 1) = id then false
  else probe v id ((i + 1) land v.mask)

let grow v =
  let old = v.slots and gen = v.gen in
  let slots = 2 * (v.mask + 1) in
  v.slots <- Array.make (2 * slots) 0;
  v.mask <- slots - 1;
  v.count <- 0;
  for i = 0 to (Array.length old / 2) - 1 do
    if old.(2 * i) = gen then
      ignore (probe v old.((2 * i) + 1) (slot_of old.((2 * i) + 1) v.mask))
  done

let add v id =
  if 2 * (v.count + 1) > v.mask + 1 then grow v;
  probe v id (slot_of id v.mask)

let start () =
  let v = Domain.DLS.get visited_key in
  v.gen <- v.gen + 1;
  v.count <- 0;
  v

(* Number of distinct nodes reachable from the edges, terminal included
   (matching the convention of the paper's node counts). *)
let size_list fs =
  let v = start () in
  let rec visit n =
    if add v n.id && not (is_terminal_node n) then begin
      visit n.low;
      visit n.high
    end
  in
  List.iter (fun f -> visit f.node) fs;
  v.count

let size f = size_list [ f ]

let support_list fs =
  let v = start () in
  let lo = ref max_int and hi = ref (-1) in
  let rec visit n =
    if add v n.id && not (is_terminal_node n) then begin
      let l = n.level in
      if l >= Array.length v.level_stamp then begin
        let n = Array.length v.level_stamp in
        let grown = Array.make (max (2 * n) (l + 1)) 0 in
        Array.blit v.level_stamp 0 grown 0 n;
        v.level_stamp <- grown
      end;
      if v.level_stamp.(l) <> v.gen then begin
        v.level_stamp.(l) <- v.gen;
        if l < !lo then lo := l;
        if l > !hi then hi := l
      end;
      visit n.low;
      visit n.high
    end
  in
  List.iter (fun f -> visit f.node) fs;
  let acc = ref [] in
  for l = !hi downto !lo do
    if v.level_stamp.(l) = v.gen then acc := l :: !acc
  done;
  !acc

let support f = support_list [ f ]

(* Number of satisfying assignments over [nvars] variables (levels
   0..nvars-1 are assumed to cover the support).  Computed in floats:
   the models verified here stay far below 2^53 distinguishable
   assignments per node. *)
let sat_count ~nvars f =
  let memo = Hashtbl.create 64 in
  (* count n = models of the REGULAR function of node n over the levels
     strictly below n.level, normalised per remaining variable. *)
  let rec fraction e =
    (* fraction of assignments to vars >= level e satisfying e, seen as
       a function of variables level(e)..nvars-1 --- computed as a pure
       probability with independent fair bits, which is exact. *)
    if is_true e then 1.0
    else if is_false e then 0.0
    else begin
      let key = tag e in
      match Hashtbl.find_opt memo key with
      | Some p -> p
      | None ->
        let v = level e in
        let e0, e1 = cofactors e v in
        let p = 0.5 *. (fraction e0 +. fraction e1) in
        Hashtbl.replace memo key p;
        p
    end
  in
  fraction f *. (2.0 ** float_of_int nvars)

(* Evaluate under a total assignment (indexed by level). *)
let eval env f =
  let rec go e =
    if is_const e then not e.neg
    else begin
      let v = level e in
      let e0, e1 = cofactors e v in
      if env.(v) then go e1 else go e0
    end
  in
  go f

(* A satisfying assignment for the variables in [vars]; variables not
   constrained by the path are set to false.  Raises [Not_found] on the
   constant false. *)
let pick_minterm ~vars f =
  if is_false f then raise Not_found;
  let n = 1 + List.fold_left max (-1) vars in
  let env = Array.make (max n 1) false in
  let rec walk e =
    if is_const e then ()
    else begin
      let v = level e in
      let e0, e1 = cofactors e v in
      if not (is_false e1) then begin
        if v < Array.length env then env.(v) <- true;
        walk e1
      end
      else walk e0
    end
  in
  walk f;
  env
