(* The layer replay.  The fixpoints of Mc.Xici, Mc.Forward and
   Mc.Backward are re-driven from outside, through the same public
   functions of Fsm, Ici and Bdd those drivers call and in the same
   order; every layer call is timed and bracketed by reads of the
   kernel's public counters.  Nothing inside lib/ is instrumented: the
   spans live in memory here and are written out when the run ends.

   The replay omits only what the real drivers do besides these calls
   (budget checks, iteration logging, tracer spans), so its kernel work
   should equal theirs; [replay.fidelity] measures exactly that. *)

(* Counter vector layout: per-op cache misses (each miss is one
   recursion step of that op), per-op hits, then scalar counters. *)
let ops =
  [| "ite"; "and_exists"; "exists"; "restrict"; "constrain"; "cofactor";
     "rename"; "vcompose" |]

let nops = Array.length ops
let hits_base = nops
let steps = 2 * nops
let created = steps + 1
let evictions = steps + 2
let unique_resizes = steps + 3
let gc_events = steps + 4
let pairs_scored = steps + 5
let pair_cache_hits = steps + 6
let pairs_abandoned = steps + 7
let taut_expansions = steps + 8
let taut_memo_hits = steps + 9
let width = steps + 10

(* The policy and tautology layers publish their counters in the
   process-wide registry; interning by name hands back the same cells. *)
let registry_counters =
  List.map
    (fun (i, name) -> (i, Obs.Registry.counter Obs.Registry.default name))
    [
      (pairs_scored, "policy.pairs_scored");
      (pair_cache_hits, "policy.pair_cache_hits");
      (pairs_abandoned, "policy.pairs_abandoned");
      (taut_expansions, "taut.expansions");
      (taut_memo_hits, "taut.memo_hits");
    ]

let op_index name =
  let rec go i =
    if i = nops then None else if ops.(i) = name then Some i else go (i + 1)
  in
  go 0

let stat name l = Option.value ~default:0 (List.assoc_opt name l)

let read man =
  let v = Array.make width 0 in
  List.iter
    (fun (name, h, m) ->
      match op_index name with
      | Some i ->
        v.(i) <- m;
        v.(hits_base + i) <- h
      | None -> ())
    (Bdd.cache_stats man);
  v.(steps) <- Bdd.steps man;
  v.(created) <- Bdd.created_nodes man;
  v.(evictions) <- stat "evictions" (Bdd.computed_table_stats man);
  v.(unique_resizes) <- stat "resizes" (Bdd.unique_table_stats man);
  v.(gc_events) <- Bdd.gc_events man;
  List.iter (fun (i, c) -> v.(i) <- Obs.Registry.count c) registry_counters;
  v

let misses v =
  let s = ref 0 in
  for i = 0 to nops - 1 do
    s := !s + v.(i)
  done;
  !s

let add_into acc v = Array.iteri (fun i x -> acc.(i) <- acc.(i) + x) v

let now = Mc.Monotonic.now

(* Run [f]; return its result, start and end times and counter deltas.
   The clock is read inside the counter reads, so their cost lands in
   the caller's (driver) time, not in the layer's. *)
let measure man f =
  let before = read man in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let after = read man in
  (r, t0, t1, Array.init width (fun i -> after.(i) - before.(i)))

type span = {
  id : int;
  parent : int;  (** 0 for a job's top span *)
  job : string;
  name : string;
  t0 : float;
  t1 : float;
  delta : int array;
}

type layer = { mutable seconds : float; mutable calls : int; sum : int array }

type t = {
  mutable job : string;
  mutable parent : int;
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
  layers : (string, layer) Hashtbl.t;
  back_seen : (int, unit) Hashtbl.t;  (** conjunct tags, per job *)
  mutable back_repeats : int;
}

let create () =
  {
    job = "";
    parent = 0;
    next_id = 1;
    spans = [];
    layers = Hashtbl.create 16;
    back_seen = Hashtbl.create 64;
    back_repeats = 0;
  }

let layer tr name =
  match Hashtbl.find_opt tr.layers name with
  | Some l -> l
  | None ->
    let l = { seconds = 0.0; calls = 0; sum = Array.make width 0 } in
    Hashtbl.replace tr.layers name l;
    l

(* A span whose children are recorded under it; returns the span too. *)
let span_with tr man name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = tr.parent in
  tr.parent <- id;
  let r, t0, t1, delta = measure man f in
  tr.parent <- parent;
  let s = { id; parent; job = tr.job; name; t0; t1; delta } in
  tr.spans <- s :: tr.spans;
  (r, s)

let span tr man name f = fst (span_with tr man name f)

(* A call into a layer: a leaf span whose cost is charged to [name]. *)
let call tr man name f =
  let r, s = span_with tr man name f in
  let l = layer tr name in
  l.seconds <- l.seconds +. (s.t1 -. s.t0);
  l.calls <- l.calls + 1;
  add_into l.sum s.delta;
  r

let back_image tr trans c =
  let tag = Bdd.tag c in
  if Hashtbl.mem tr.back_seen tag then tr.back_repeats <- tr.back_repeats + 1
  else Hashtbl.replace tr.back_seen tag ();
  call tr (Fsm.Trans.man trans) "fsm.back_image" (fun () ->
      Fsm.Trans.back_image trans c)

(* What a replayed fixpoint leaves behind: the report the real driver
   would have produced, the final iterate and the iterate history (the
   state a checkpoint of this run would hold). *)
type outcome = {
  report : Mc.Report.t;
  current : Ici.Clist.t;
  history : Ici.Clist.t list;
}

let reporter (model : Mc.Model.t) method_name =
  let man = Mc.Model.man model in
  let t_start = now () in
  let baseline = Bdd.created_nodes man in
  let peak = Mc.Report.fresh_peak () in
  let iterations = ref 0 in
  let finish status =
    Mc.Report.make ~model:model.Mc.Model.name ~method_name ~status
      ~iterations:!iterations ~peak ~man ~baseline ~time_s:(now () -. t_start)
  in
  (peak, iterations, finish)

(* The fixpoint loop shared by the drivers: each step is an
   "iteration" span, and the recursion happens outside it, so
   iterations are siblings rather than a nest. *)
let rec iterate tr man step st =
  match span tr man "iteration" (fun () -> step st) with
  | `Done o -> o
  | `Continue st' -> iterate tr man step st'

(* Mc.Xici.run with the default policy and the exact-equality test. *)
let xici tr (model : Mc.Model.t) =
  let man = Mc.Model.man model in
  let trans = model.Mc.Model.trans in
  let init = model.Mc.Model.init in
  let cfg = Ici.Policy.default in
  let peak, iterations, finish = reporter model "XICI" in
  let state = Ici.Policy.create_state () in
  let memo = Ici.Tautology.create_memo () in
  let stats = Ici.Tautology.fresh_stats () in
  let improve l =
    let l =
      call tr man "ici.simplify" (fun () -> Ici.Policy.simplify_pass man cfg l)
    in
    if Ici.Clist.is_false l then l
    else
      call tr man "ici.evaluate" (fun () ->
          Ici.Policy.greedy_evaluate man ~state
            ?pair_step_factor:cfg.Ici.Policy.pair_step_factor
            ~grow_threshold:cfg.Ici.Policy.grow_threshold l)
  in
  let violated l gs c =
    let trace =
      call tr man "mc.cex" (fun () ->
          let start = Mc.Trace.pick trans (Bdd.band man init (Bdd.bnot man c)) in
          Mc.Trace.backward trans ~gs:(List.rev gs) ~start)
    in
    { report = finish (Mc.Report.Violated trace); current = l; history = gs }
  in
  let l0 = Ici.Clist.of_list man (Mc.Model.property model) in
  let step (l, gs) =
    Mc.Report.observe_set peak l;
    match Ici.Clist.find_unimplied man init l with
    | Some c -> `Done (violated l gs c)
    | None ->
      incr iterations;
      let back = List.map (back_image tr trans) l in
      let l' = improve (l0 @ back) in
      if Ici.Clist.is_false l' then
        match Ici.Clist.find_unimplied man init l' with
        | Some c -> `Done (violated l' (l' :: gs) c)
        | None ->
          `Done { report = finish Mc.Report.Proved; current = l'; history = gs }
      else if
        call tr man "ici.termination" (fun () ->
            Ici.Tautology.equal ~var_choice:Ici.Tautology.First_top
              ~memo_table:memo ~stats man l l')
      then `Done { report = finish Mc.Report.Proved; current = l'; history = gs }
      else `Continue (l', l' :: gs)
  in
  let start = improve l0 in
  iterate tr man step (start, [ start ])

(* Mc.Forward.run: frontier images, onion rings for the trace. *)
let forward tr (model : Mc.Model.t) =
  let man = Mc.Model.man model in
  let trans = model.Mc.Model.trans in
  let property = Ici.Clist.of_list man (Mc.Model.property model) in
  let peak, iterations, finish = reporter model "Fwd" in
  let step (reached, frontier, rings) =
    Mc.Report.observe_set peak [ reached ];
    match Ici.Clist.find_unimplied man frontier property with
    | Some c ->
      let trace =
        call tr man "mc.cex" (fun () ->
            let bad =
              Mc.Trace.pick trans (Bdd.band man frontier (Bdd.bnot man c))
            in
            Mc.Trace.forward trans ~rings:(List.rev rings) ~bad)
      in
      `Done
        { report = finish (Mc.Report.Violated trace); current = [ reached ];
          history = [] }
    | None ->
      let img =
        call tr man "fsm.image" (fun () -> Fsm.Trans.image trans frontier)
      in
      let reached' = Bdd.bor man reached img in
      if Bdd.equal reached' reached then
        `Done { report = finish Mc.Report.Proved; current = [ reached ]; history = [] }
      else begin
        incr iterations;
        let frontier' = Bdd.band man img (Bdd.bnot man reached) in
        `Continue (reached', frontier', reached' :: rings)
      end
  in
  let init = model.Mc.Model.init in
  iterate tr man step (init, init, [ init ])

(* Mc.Backward.run: one monolithic BDD, back-imaged whole. *)
let backward tr (model : Mc.Model.t) =
  let man = Mc.Model.man model in
  let trans = model.Mc.Model.trans in
  let init = model.Mc.Model.init in
  let peak, iterations, finish = reporter model "Bkwd" in
  let g0 = Bdd.conj man (Mc.Model.property model) in
  let step (g, gs) =
    Mc.Report.observe_set peak [ g ];
    if not (Bdd.implies man init g) then begin
      let trace =
        call tr man "mc.cex" (fun () ->
            let start =
              Mc.Trace.pick trans (Bdd.band man init (Bdd.bnot man g))
            in
            Mc.Trace.backward trans
              ~gs:(List.rev_map (fun x -> [ x ]) gs)
              ~start)
      in
      `Done
        { report = finish (Mc.Report.Violated trace); current = [ g ]; history = [] }
    end
    else begin
      incr iterations;
      let g' = Bdd.band man g0 (back_image tr trans g) in
      if Bdd.equal g' g then
        `Done { report = finish Mc.Report.Proved; current = [ g ]; history = [] }
      else `Continue (g', g' :: gs)
    end
  in
  iterate tr man step (g0, [ g0 ])

type solved = { outcome : outcome; seconds : float; delta : int array }

(* Replay one job on a freshly built model; the job's top span is its
   solve. *)
let run tr (meth : Mc.Runner.meth) ~job (model : Mc.Model.t) =
  tr.job <- job;
  Hashtbl.reset tr.back_seen;
  let man = Mc.Model.man model in
  let drive =
    match meth with
    | Mc.Runner.Xici -> xici
    | Mc.Runner.Forward -> forward
    | Mc.Runner.Backward -> backward
    | m -> invalid_arg ("Replay.run: no replay for " ^ Mc.Runner.name m)
  in
  let outcome, s = span_with tr man "solve" (fun () -> drive tr model) in
  { outcome; seconds = s.t1 -. s.t0; delta = s.delta }

let span_json s =
  let open Obs.Json in
  Obj
    [
      ("id", Int s.id);
      ("parent", Int s.parent);
      ("job", String s.job);
      ("name", String s.name);
      ("t0", Float s.t0);
      ("t1", Float s.t1);
      ("misses", Int (misses s.delta));
      ("steps", Int s.delta.(steps));
      ("created", Int s.delta.(created));
    ]

let write_spans tr path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Obs.Json.to_string (span_json s));
          output_char oc '\n')
        (List.rev tr.spans))
