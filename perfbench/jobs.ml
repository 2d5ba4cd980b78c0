(* A benchmark job: one daemon job line (the Srv.Jobspec format, so a
   one-shot job and an icvd job describe the same problem) plus the
   verdict the workload definition expects. *)

type expect = Proved | Violated

type t = { spec : Srv.Jobspec.t; expect : expect }

let expect_name = function Proved -> "proved" | Violated -> "violated"

let of_json json =
  match Srv.Jobspec.of_json json with
  | Error why -> failwith ("bad job: " ^ why)
  | Ok spec -> (
    match Option.bind (Obs.Json.member "expect" json) Obs.Json.to_str with
    | Some "proved" -> { spec; expect = Proved }
    | Some "violated" -> { spec; expect = Violated }
    | _ ->
      failwith
        ("job " ^ spec.Srv.Jobspec.id ^ ": expect must be proved or violated"))

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.to_list (Obs.Json.of_string text) with
  | Some jobs -> List.map of_json jobs
  | None -> failwith (path ^ ": expected a JSON list of jobs")

let id j = j.spec.Srv.Jobspec.id

let build j = Srv.Jobspec.build j.spec.Srv.Jobspec.model

(* A batch job's aggregate verdict is the verdict on the whole
   property, so its one-shot counterpart runs the job's method on the
   conjunction. *)
let meth j =
  match j.spec.Srv.Jobspec.meth with
  | Srv.Jobspec.Method m -> m
  | Srv.Jobspec.Portfolio -> failwith (id j ^ ": portfolio jobs are not benchmarked")

let verdict_word (r : Mc.Report.t) =
  match r.Mc.Report.status with
  | Mc.Report.Proved -> "proved"
  | Mc.Report.Violated _ -> "violated"
  | Mc.Report.Exceeded _ -> "exceeded"

(* The oracle: the verdict is the expected one, and a counterexample
   replays concretely on a freshly built model. *)
let check j (r : Mc.Report.t) =
  match (j.expect, r.Mc.Report.status) with
  | Proved, Mc.Report.Proved -> Ok ()
  | Violated, Mc.Report.Violated trace ->
    let m = build j in
    let good = Ici.Clist.of_list (Mc.Model.man m) (Mc.Model.property m) in
    if Mc.Trace.validate m.Mc.Model.trans ~init:m.Mc.Model.init ~good trace
    then Ok ()
    else Error (id j ^ ": counterexample does not replay")
  | e, _ ->
    Error
      (Printf.sprintf "%s: expected %s, got %s" (id j) (expect_name e)
         (verdict_word r))
