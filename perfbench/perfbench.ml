(* The benchmark's in-process runner, driven by run.py.

     perfbench setup --jobs FILE --seconds T
     perfbench solve --jobs FILE
     perfbench trace --jobs FILE --dir DIR

   [setup] times the model builds (the set-up metric).  [solve] runs
   each job once through Mc.Runner.run with tracing off and prints its
   times and report.  [trace] measures the per-layer metrics: per job
   it runs the real driver once, untraced, then the layer replay on a
   fresh build, and compares their kernel work.  Every mode checks
   verdicts with the oracle in Jobs and prints one JSON object. *)

open Perfbench_lib

let now = Mc.Monotonic.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.0

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  with
  | Some line ->
    Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM in /proc/self/status"

let num_metrics l = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) l)

let print_result ~attempted ~failed ~wrong fields =
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          ([
             ("attempted", Int attempted);
             ("failed", Int failed);
             ("wrong", List (List.map (fun s -> String s) (List.rev wrong)));
           ]
          @ fields)))

(* Run one job through the real driver; exceptions count as failures. *)
let solve j model =
  match Mc.Runner.run (Jobs.meth j) model with
  | r -> Ok r
  | exception e -> Error (Jobs.id j ^ ": " ^ Printexc.to_string e)

(* Set-up: every job's model built over and over for about [seconds]
   (at least three rounds); the median round. *)
let setup jobs ~seconds =
  let round () = sum (List.map (fun j -> snd (timed (fun () -> Jobs.build j))) jobs) in
  let rec go rounds =
    if List.length rounds >= 3 && sum rounds >= seconds then rounds
    else go (round () :: rounds)
  in
  print_endline
    (Obs.Json.to_string (Obs.Json.Obj [ ("setup_s", Obs.Json.Float (median (go []))) ]))

(* Each job once on a fresh build: build and solve times, the report
   and the oracle's judgement.  run.py starts one process per job, as
   a user of icv would, so the peak resident set is the job's own. *)
let solve_jobs jobs =
  let wrong = ref [] and failed = ref 0 in
  let rows =
    List.filter_map
      (fun j ->
        let model, build_s = timed (fun () -> Jobs.build j) in
        match timed (fun () -> solve j model) with
        | Error why, _ ->
          incr failed;
          wrong := why :: !wrong;
          None
        | Ok r, solve_s ->
          (match r.Mc.Report.status with
          | Mc.Report.Exceeded _ -> incr failed
          | _ -> (
            match Jobs.check j r with
            | Ok () -> ()
            | Error why -> wrong := why :: !wrong));
          Some
            (Obs.Json.Obj
               [
                 ("id", Obs.Json.String (Jobs.id j));
                 ("build_s", Obs.Json.Float build_s);
                 ("solve_s", Obs.Json.Float solve_s);
                 ("report", Mc.Report.to_json r);
               ]))
      jobs
  in
  print_result ~attempted:(List.length jobs) ~failed:!failed ~wrong:!wrong
    [ ("peak_rss_mb", Obs.Json.Float (peak_rss_mb ())); ("jobs", Obs.Json.List rows) ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let trace jobs ~dir =
  let tr = Replay.create () in
  let wrong = ref [] and notes = ref [] in
  let check j r =
    match Jobs.check j r with Ok () -> () | Error why -> wrong := why :: !wrong
  in
  let build_s = ref 0.0 and build_nodes = ref 0 in
  let runner_s = ref 0.0 and fidelity = ref 1.0 in
  let freeze_s = ref 0.0 and thaw_s = ref 0.0 in
  let save_s = ref 0.0 and ckpt_bytes = ref 0 in
  let solves =
    List.map
      (fun j ->
        let meth = Jobs.meth j in
        (* The real program, untraced: the verdict, iterations and
           kernel work the replay must reproduce. *)
        let m1 = Jobs.build j in
        let r1, t0, t1, d1 =
          Replay.measure (Mc.Model.man m1) (fun () -> Mc.Runner.run meth m1)
        in
        check j r1;
        runner_s := !runner_s +. (t1 -. t0);
        let model, s = timed (fun () -> Jobs.build j) in
        let man = Mc.Model.man model in
        build_s := !build_s +. s;
        build_nodes := !build_nodes + Bdd.created_nodes man;
        let solved = Replay.run tr meth ~job:(Jobs.id j) model in
        let o = solved.Replay.outcome in
        let r2 = o.Replay.report in
        Replay.call tr man "mc.validate" (fun () -> check j r2);
        if
          Jobs.verdict_word r1 <> Jobs.verdict_word r2
          || r1.Mc.Report.iterations <> r2.Mc.Report.iterations
          || r1.Mc.Report.peak_set_nodes <> r2.Mc.Report.peak_set_nodes
        then
          notes :=
            Printf.sprintf "%s: replay %s/%d it/%d nodes, runner %s/%d/%d"
              (Jobs.id j) (Jobs.verdict_word r2) r2.Mc.Report.iterations
              r2.Mc.Report.peak_set_nodes (Jobs.verdict_word r1)
              r1.Mc.Report.iterations r1.Mc.Report.peak_set_nodes
            :: !notes;
        (* Fidelity: the job furthest from 1 speaks for the workload. *)
        let f = ratio (Replay.misses solved.Replay.delta) (Replay.misses d1) in
        if Float.abs (f -. 1.0) > Float.abs (!fidelity -. 1.0) then fidelity := f;
        (* The mc layer's persistence paths, on this job's model and
           final iterate. *)
        let frozen, s = timed (fun () -> Mc.Parallel.freeze model) in
        freeze_s := !freeze_s +. s;
        let _, s = timed (fun () -> Mc.Parallel.thaw frozen) in
        thaw_s := !thaw_s +. s;
        let path = Filename.concat dir ("ckpt-" ^ Jobs.id j) in
        let (), s =
          timed (fun () ->
              Mc.Checkpoint.save man path
                {
                  Mc.Checkpoint.model_name = model.Mc.Model.name;
                  nvars = Bdd.num_vars man;
                  iterations = r2.Mc.Report.iterations;
                  cfg = Ici.Policy.default;
                  termination = `Exact_equal;
                  current = o.Replay.current;
                  gs = o.Replay.history;
                })
        in
        save_s := !save_s +. s;
        ckpt_bytes := !ckpt_bytes + (Unix.stat path).Unix.st_size;
        Sys.remove path;
        solved)
      jobs
  in
  Replay.write_spans tr (Filename.concat dir "spans.jsonl");
  let total = Array.make Replay.width 0 in
  List.iter (fun s -> Replay.add_into total s.Replay.delta) solves;
  let solve_s = sum (List.map (fun s -> s.Replay.seconds) solves) in
  let layer name = Replay.layer tr name in
  let lsum name i = (layer name).Replay.sum.(i) in
  let lmisses name = float_of_int (Replay.misses (layer name).Replay.sum) in
  let fi = float_of_int in
  let in_solve =
    [ "fsm.image"; "fsm.back_image"; "ici.simplify"; "ici.evaluate";
      "ici.termination"; "mc.cex" ]
  in
  let back = layer "fsm.back_image" in
  let bdd_ops =
    List.concat
      (List.mapi
         (fun i op ->
           [
             ("bdd.misses." ^ op, fi total.(i));
             ( "bdd.hit_ratio." ^ op,
               ratio total.(Replay.hits_base + i)
                 (total.(Replay.hits_base + i) + total.(i)) );
           ])
         (Array.to_list Replay.ops))
  in
  let scored = lsum "ici.evaluate" Replay.pairs_scored in
  let pair_hits = lsum "ici.evaluate" Replay.pair_cache_hits in
  let expansions = lsum "ici.termination" Replay.taut_expansions in
  let memo_hits = lsum "ici.termination" Replay.taut_memo_hits in
  print_result ~attempted:(List.length jobs) ~failed:0 ~wrong:!wrong
    [
      ("notes", Obs.Json.List (List.rev_map (fun s -> Obs.Json.String s) !notes));
      ( "metrics",
        num_metrics
          ([
             ("models.build_s", !build_s);
             ("models.build_nodes", fi !build_nodes);
             ("bdd.misses", fi (Replay.misses total));
             ("bdd.steps", fi total.(Replay.steps));
           ]
          @ bdd_ops
          @ [
              ("bdd.computed.evictions", fi total.(Replay.evictions));
              ("bdd.unique.resizes", fi total.(Replay.unique_resizes));
              ("bdd.gc_events", fi total.(Replay.gc_events));
              ("bdd.ns_per_miss", solve_s *. 1e9 /. fi (max 1 (Replay.misses total)));
              ("fsm.image.s", (layer "fsm.image").Replay.seconds);
              ("fsm.image.calls", fi (layer "fsm.image").Replay.calls);
              ("fsm.image.misses", lmisses "fsm.image");
              ("fsm.back_image.s", back.Replay.seconds);
              ("fsm.back_image.calls", fi back.Replay.calls);
              ("fsm.back_image.misses", lmisses "fsm.back_image");
              ("fsm.back_image.repeat_share", ratio tr.Replay.back_repeats back.Replay.calls);
              ("ici.simplify.s", (layer "ici.simplify").Replay.seconds);
              ("ici.simplify.misses", lmisses "ici.simplify");
              ("ici.evaluate.s", (layer "ici.evaluate").Replay.seconds);
              ("ici.evaluate.misses", lmisses "ici.evaluate");
              ("ici.evaluate.pairs_scored", fi scored);
              ("ici.evaluate.pair_cache_hit_ratio", ratio pair_hits (pair_hits + scored));
              ( "ici.evaluate.abandoned_share",
                ratio (lsum "ici.evaluate" Replay.pairs_abandoned) scored );
              ("ici.termination.s", (layer "ici.termination").Replay.seconds);
              ("ici.termination.misses", lmisses "ici.termination");
              ("ici.termination.expansions", fi expansions);
              ("ici.termination.memo_hit_ratio", ratio memo_hits (memo_hits + expansions));
              ( "mc.driver.s",
                solve_s -. sum (List.map (fun n -> (layer n).Replay.seconds) in_solve) );
              ( "mc.cex.s",
                (layer "mc.cex").Replay.seconds +. (layer "mc.validate").Replay.seconds );
              ("mc.freeze.s", !freeze_s);
              ("mc.thaw.s", !thaw_s);
              ("mc.checkpoint.save.s", !save_s);
              ("mc.checkpoint.bytes", fi !ckpt_bytes);
              ("replay.fidelity", !fidelity);
              ("replay.overhead_share", (solve_s /. !runner_s) -. 1.0);
              ("replay.solve_s", solve_s);
            ]) );
    ]

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let need name =
    match opt name args with
    | Some v -> v
    | None ->
      prerr_endline ("perfbench: missing " ^ name);
      exit 2
  in
  let jobs () = Jobs.load (need "--jobs") in
  match args with
  | _ :: "setup" :: _ -> setup (jobs ()) ~seconds:(float_of_string (need "--seconds"))
  | _ :: "solve" :: _ -> solve_jobs (jobs ())
  | _ :: "trace" :: _ -> trace (jobs ()) ~dir:(need "--dir")
  | _ ->
    prerr_endline "usage: perfbench (setup|solve|trace) --jobs FILE ...";
    exit 2
