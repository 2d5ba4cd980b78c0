(* Replay fidelity: on small instances the layer replay must reach the
   real driver's verdict, iteration count and SetNodes, and do the same
   kernel work, or the per-layer split would describe another program. *)

let job line = Perfbench_lib.Jobs.of_json (Obs.Json.of_string line)

let cases =
  [
    {|{"id":"fifo-5","model":{"family":"fifo","depth":5},"expect":"proved"}|};
    {|{"id":"fifo-5-bug","model":{"family":"fifo","depth":5,"bug":true},"expect":"violated"}|};
    {|{"id":"network-4","model":{"family":"network","procs":4},"expect":"proved"}|};
    {|{"id":"filter-4","model":{"family":"filter","depth":4},"expect":"proved"}|};
    {|{"id":"cpu-2R1B","model":{"family":"cpu","regs":2,"width":1},"expect":"proved"}|};
    {|{"id":"fifo-5-fwd","model":{"family":"fifo","depth":5},"method":"fwd","expect":"proved"}|};
    {|{"id":"fifo-5-bug-fwd","model":{"family":"fifo","depth":5,"bug":true},"method":"fwd","expect":"violated"}|};
    {|{"id":"network-4-bkwd","model":{"family":"network","procs":4},"method":"bkwd","expect":"proved"}|};
    {|{"id":"fifo-5-bug-bkwd","model":{"family":"fifo","depth":5,"bug":true},"method":"bkwd","expect":"violated"}|};
  ]

let test line () =
  let open Perfbench_lib in
  let j = job line in
  let meth = Jobs.meth j in
  let m1 = Jobs.build j in
  let real, _, _, d1 =
    Replay.measure (Mc.Model.man m1) (fun () -> Mc.Runner.run meth m1)
  in
  let tr = Replay.create () in
  let solved = Replay.run tr meth ~job:(Jobs.id j) (Jobs.build j) in
  let replayed = solved.Replay.outcome.Replay.report in
  let verdict = Jobs.verdict_word in
  Alcotest.(check string) "verdict" (verdict real) (verdict replayed);
  Alcotest.(check bool) "oracle" true (Result.is_ok (Jobs.check j replayed));
  Alcotest.(check int) "iterations" real.Mc.Report.iterations
    replayed.Mc.Report.iterations;
  Alcotest.(check int) "SetNodes" real.Mc.Report.peak_set_nodes
    replayed.Mc.Report.peak_set_nodes;
  let fidelity =
    float_of_int (Replay.misses solved.Replay.delta)
    /. float_of_int (Replay.misses d1)
  in
  if Float.abs (fidelity -. 1.0) > 0.01 then
    Alcotest.failf "kernel misses: replay/real = %.4f" fidelity

let () =
  Alcotest.run "perfbench"
    [
      ( "replay",
        List.map
          (fun line ->
            Alcotest.test_case (Perfbench_lib.Jobs.id (job line)) `Quick (test line))
          cases );
    ]
