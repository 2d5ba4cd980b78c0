(* Declarative verification jobs for the resident daemon.

   A job names a model by (family, parameters) instead of carrying
   BDDs: the daemon builds the model once per distinct parameterisation
   and caches the frozen form under [model_key] (a digest of the
   canonical declaration text), so a thousand jobs on the same design
   pay one build.  The spec is deliberately the same surface icv's
   flags expose -- a daemon job and a one-shot CLI run describe the
   same verification problem, which is what makes verdict-parity
   checking (CI's daemon smoke) meaningful. *)

type model_spec = {
  family : string;  (* fifo | network | filter | cpu | abp *)
  depth : int;
  width : int;
  procs : int;
  regs : int;
  bound : int;
  assisted : bool;
  bug : bool;
}

let default_model =
  {
    family = "fifo";
    depth = 5;
    width = 8;
    procs = 4;
    regs = 2;
    bound = 128;
    assisted = false;
    bug = false;
  }

type fault_action = Crash | Exceed

type fault = {
  after_steps : int option;
  after_iterations : int option;
  action : fault_action;
}

type meth = Method of Mc.Runner.meth | Portfolio

type t = {
  id : string;
  model : model_spec;
  meth : meth;
  batch : bool;
  deadline_s : float option;
  max_live_nodes : int option;
  grow_threshold : float option;
  progress : bool;
  trace : bool;
  fault : fault option;
}

(* --- model building ------------------------------------------------- *)

let build (m : model_spec) : Mc.Model.t =
  match String.lowercase_ascii m.family with
  | "fifo" ->
    Models.Typed_fifo.make
      {
        Models.Typed_fifo.depth = m.depth;
        width = m.width;
        bound = m.bound;
        bug = m.bug;
      }
  | "network" ->
    Models.Network.make { Models.Network.procs = m.procs; bug = m.bug }
  | "filter" ->
    Models.Avg_filter.make
      {
        Models.Avg_filter.depth = m.depth;
        sample_width = m.width;
        assisted = m.assisted;
        bug = m.bug;
      }
  | "cpu" ->
    Models.Pipeline_cpu.make
      {
        Models.Pipeline_cpu.regs = m.regs;
        width = m.width;
        assisted = m.assisted;
        bug = m.bug;
      }
  | "abp" -> Models.Abp.make { Models.Abp.width = m.width; bug = m.bug }
  | other -> failwith (Printf.sprintf "unknown model family %S" other)

(* The canonical declaration text only mentions the parameters the
   family actually reads, so specs differing in an ignored field (e.g.
   [procs] on a FIFO job) share one cache entry. *)
let canonical (m : model_spec) =
  match String.lowercase_ascii m.family with
  | "fifo" ->
    Printf.sprintf "fifo depth=%d width=%d bound=%d bug=%b" m.depth m.width
      m.bound m.bug
  | "network" -> Printf.sprintf "network procs=%d bug=%b" m.procs m.bug
  | "filter" ->
    Printf.sprintf "filter depth=%d width=%d assisted=%b bug=%b" m.depth
      m.width m.assisted m.bug
  | "cpu" ->
    Printf.sprintf "cpu regs=%d width=%d assisted=%b bug=%b" m.regs m.width
      m.assisted m.bug
  | "abp" -> Printf.sprintf "abp width=%d bug=%b" m.width m.bug
  | other -> Printf.sprintf "unknown %s" other

let model_key m = Digest.to_hex (Digest.string (canonical m))

(* --- JSON ----------------------------------------------------------- *)

let meth_of_string s =
  if String.lowercase_ascii s = "portfolio" then Some Portfolio
  else Option.map (fun m -> Method m) (Mc.Runner.of_name s)

let meth_name = function
  | Method m -> Mc.Runner.name m
  | Portfolio -> "portfolio"

let ( let* ) = Result.bind

let field_int ?default name json =
  match Obs.Json.member name json with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
    match Obs.Json.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let field_bool ~default name json =
  match Obs.Json.member name json with
  | None -> Ok default
  | Some (Obs.Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let field_str ?default name json =
  match Obs.Json.member name json with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
    match Obs.Json.to_str v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S must be a string" name))

let field_float_opt name json =
  match Obs.Json.member name json with
  | None -> Ok None
  | Some v -> (
    match Obs.Json.to_float v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "field %S must be a number" name))

let field_int_opt name json =
  match Obs.Json.member name json with
  | None -> Ok None
  | Some v -> (
    match Obs.Json.to_int v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

(* Each family's own precondition on its parameters, checked here so a
   bad job is rejected with the field's name instead of reaching the
   model builder's assertion.  Unknown families fail in [build]. *)
let check_ranges (m : model_spec) =
  let need ok name v what =
    if ok then Ok ()
    else Error (Printf.sprintf "field %S must be %s, got %d" name what v)
  in
  let at_least n name v =
    need (v >= n) name v (Printf.sprintf "at least %d" n)
  in
  match String.lowercase_ascii m.family with
  | "fifo" ->
    let* () = at_least 1 "depth" m.depth in
    at_least 1 "width" m.width
  | "network" ->
    need (m.procs >= 1 && m.procs <= 15) "procs" m.procs "from 1 to 15"
  | "cpu" ->
    let* () = at_least 2 "regs" m.regs in
    at_least 1 "width" m.width
  | "abp" -> at_least 1 "width" m.width
  | "filter" ->
    need
      (m.depth >= 2 && m.depth land (m.depth - 1) = 0)
      "depth" m.depth "a power of two, at least 2"
  | _ -> Ok ()

let model_of_json json =
  let* family = field_str "family" json in
  let d = default_model in
  let* depth = field_int ~default:d.depth "depth" json in
  let* width = field_int ~default:d.width "width" json in
  let* procs = field_int ~default:d.procs "procs" json in
  let* regs = field_int ~default:d.regs "regs" json in
  let* bound = field_int ~default:d.bound "bound" json in
  let* assisted = field_bool ~default:d.assisted "assisted" json in
  let* bug = field_bool ~default:d.bug "bug" json in
  let m = { family; depth; width; procs; regs; bound; assisted; bug } in
  let* () = check_ranges m in
  Ok m

let fault_of_json json =
  let* after_steps = field_int_opt "after_steps" json in
  let* after_iterations = field_int_opt "after_iterations" json in
  let* action =
    let* s = field_str ~default:"crash" "action" json in
    match String.lowercase_ascii s with
    | "crash" -> Ok Crash
    | "exceed" -> Ok Exceed
    | other -> Error (Printf.sprintf "unknown fault action %S" other)
  in
  if after_steps = None && after_iterations = None then
    Error "fault needs after_steps or after_iterations"
  else Ok { after_steps; after_iterations; action }

let of_json json =
  match json with
  | Obs.Json.Obj _ ->
    let* id = field_str "id" json in
    if id = "" then Error "empty job id"
    else
      let* model =
        match Obs.Json.member "model" json with
        | Some m -> model_of_json m
        | None -> Error "missing field \"model\""
      in
      let* meth =
        let* s = field_str ~default:"xici" "method" json in
        match meth_of_string s with
        | Some m -> Ok m
        | None -> Error (Printf.sprintf "unknown method %S" s)
      in
      let* batch = field_bool ~default:false "batch" json in
      let* () =
        if batch && meth = Portfolio then
          Error "batch jobs need a single method, not portfolio"
        else Ok ()
      in
      let* deadline_s = field_float_opt "deadline_s" json in
      let* max_live_nodes = field_int_opt "max_live_nodes" json in
      let* grow_threshold = field_float_opt "grow_threshold" json in
      let* progress = field_bool ~default:false "progress" json in
      let* trace = field_bool ~default:false "trace" json in
      let* fault =
        match Obs.Json.member "fault" json with
        | None -> Ok None
        | Some f ->
          let* f = fault_of_json f in
          Ok (Some f)
      in
      Ok
        {
          id;
          model;
          meth;
          batch;
          deadline_s;
          max_live_nodes;
          grow_threshold;
          progress;
          trace;
          fault;
        }
  | _ -> Error "job must be a JSON object"

let model_to_json (m : model_spec) =
  Obs.Json.Obj
    [
      ("family", Obs.Json.String m.family);
      ("depth", Obs.Json.Int m.depth);
      ("width", Obs.Json.Int m.width);
      ("procs", Obs.Json.Int m.procs);
      ("regs", Obs.Json.Int m.regs);
      ("bound", Obs.Json.Int m.bound);
      ("assisted", Obs.Json.Bool m.assisted);
      ("bug", Obs.Json.Bool m.bug);
    ]

let to_json t =
  let base =
    [
      ("id", Obs.Json.String t.id);
      ("model", model_to_json t.model);
      ("method", Obs.Json.String (meth_name t.meth));
      ("batch", Obs.Json.Bool t.batch);
      ("progress", Obs.Json.Bool t.progress);
      ("trace", Obs.Json.Bool t.trace);
    ]
  in
  let opt name conv = function
    | None -> []
    | Some v -> [ (name, conv v) ]
  in
  Obs.Json.Obj
    (base
    @ opt "deadline_s" (fun f -> Obs.Json.Float f) t.deadline_s
    @ opt "max_live_nodes" (fun i -> Obs.Json.Int i) t.max_live_nodes
    @ opt "grow_threshold" (fun f -> Obs.Json.Float f) t.grow_threshold
    @ opt "fault"
        (fun (f : fault) ->
          Obs.Json.Obj
            ((match f.after_steps with
             | Some s -> [ ("after_steps", Obs.Json.Int s) ]
             | None -> [])
            @ (match f.after_iterations with
              | Some i -> [ ("after_iterations", Obs.Json.Int i) ]
              | None -> [])
            @ [
                ( "action",
                  Obs.Json.String
                    (match f.action with Crash -> "crash" | Exceed -> "exceed")
                );
              ]))
        t.fault)
