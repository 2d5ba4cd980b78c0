(* Tests for the obs telemetry subsystem: JSON round-trips, the metrics
   registry, the span tracer's two sinks, the iteration log, and an
   end-to-end run of a real model with the global tracer installed. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Json ------------------------------------------------------------ *)

let roundtrip j = Obs.Json.of_string (Obs.Json.to_string j)

let test_json_roundtrip () =
  let cases =
    Obs.Json.
      [
        Null;
        Bool true;
        Bool false;
        Int 0;
        Int (-42);
        Int max_int;
        Float 0.0;
        Float 1.5;
        Float (-0.0001);
        Float 1e300;
        Float 0.1;
        String "";
        String "plain";
        String "esc \" \\ \n \t \r \b \012 \x00 end";
        String "unicode: \xc3\xa9\xe2\x82\xac";
        List [];
        List [ Int 1; String "two"; Null ];
        Obj [];
        Obj [ ("a", Int 1); ("b", List [ Bool false ]); ("c", Obj []) ];
      ]
  in
  List.iter
    (fun j ->
      check
        (Printf.sprintf "round-trip %s" (Obs.Json.to_string j))
        true
        (Obs.Json.equal j (roundtrip j)))
    cases;
  (* Int and Float must stay distinct through the trip. *)
  (match roundtrip (Obs.Json.Int 3) with
  | Obs.Json.Int 3 -> ()
  | _ -> Alcotest.fail "Int 3 did not come back as Int");
  match roundtrip (Obs.Json.Float 3.0) with
  | Obs.Json.Float 3.0 -> ()
  | _ -> Alcotest.fail "Float 3.0 did not come back as Float"

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "treu"; "1 2"; "{\"a\":}"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | _ -> Alcotest.fail (Printf.sprintf "parsed malformed %S" s)
      | exception Obs.Json.Parse_error _ -> ())
    bad

let test_json_accessors () =
  let j =
    Obs.Json.of_string {|{"n": 7, "x": 2.5, "s": "hi", "l": [1,2], "z": null}|}
  in
  let member k = Option.get (Obs.Json.member k j) in
  check_int "n" 7 (Option.get (Obs.Json.to_int (member "n")));
  check "x" true (Obs.Json.to_float (member "x") = Some 2.5);
  (* to_float also accepts Int. *)
  check "n as float" true (Obs.Json.to_float (member "n") = Some 7.0);
  check_str "s" "hi" (Option.get (Obs.Json.to_str (member "s")));
  check_int "l len" 2 (List.length (Option.get (Obs.Json.to_list (member "l"))));
  check "missing" true (Obs.Json.member "nope" j = None)

(* --- Registry -------------------------------------------------------- *)

let test_registry_counters () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "test.count" in
  check_int "fresh" 0 (Obs.Registry.count c);
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  check_int "after" 5 (Obs.Registry.count c);
  (* Handles are interned by name. *)
  Obs.Registry.incr (Obs.Registry.counter reg "test.count");
  check_int "interned" 6 (Obs.Registry.count c);
  let g = Obs.Registry.gauge reg "test.gauge" in
  Obs.Registry.set g 2.0;
  Obs.Registry.set_max g 1.0;
  check "set_max keeps peak" true (Obs.Registry.value g = 2.0);
  Obs.Registry.set_max g 9.0;
  check "set_max raises" true (Obs.Registry.value g = 9.0);
  Obs.Registry.reset reg;
  check_int "reset counter" 0 (Obs.Registry.count c);
  check "reset gauge" true (Obs.Registry.value g = 0.0);
  Obs.Registry.incr c;
  check_int "handle valid after reset" 1 (Obs.Registry.count c)

let test_registry_histogram () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "test.hist" in
  List.iter (Obs.Registry.observe h) [ 0; 1; 2; 3; 4; 1000; -5 ];
  check_int "count" 7 (Obs.Registry.histogram_count h);
  (* negative clamps to 0 *)
  check_int "sum" (0 + 1 + 2 + 3 + 4 + 1000 + 0) (Obs.Registry.histogram_sum h);
  check_int "max" 1000 (Obs.Registry.histogram_max h);
  let buckets = Obs.Registry.histogram_buckets h in
  check "buckets ascending" true
    (let uppers = List.map fst buckets in
     List.sort compare uppers = uppers);
  check_int "bucket total" 7 (List.fold_left (fun a (_, n) -> a + n) 0 buckets);
  (* log2 buckets: 1 lands in (upper 1), 2 and 3 in (upper 4)? — pin the
     documented rule instead: bucket i counts [2^(i-1), 2^i), so sample
     s>0 lands in the bucket whose upper bound is the smallest power of
     two strictly greater than s. *)
  List.iter
    (fun s ->
      let expected_upper =
        if s <= 0 then 0
        else begin
          let u = ref 1 in
          while !u <= s do
            u := !u * 2
          done;
          !u
        end
      in
      let found =
        List.exists (fun (upper, n) -> upper = expected_upper && n > 0) buckets
      in
      check (Printf.sprintf "sample %d bucketed at %d" s expected_upper) true
        found)
    [ 1; 2; 3; 4; 1000 ]

let test_registry_percentile () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "test.pct" in
  check "empty histogram is 0" true
    (Obs.Registry.histogram_percentile h 0.5 = 0.0);
  (* 100 samples of 1ms..100ms: the log2 estimate must stay within one
     bucket width of the true quantile, and the top is clamped to the
     observed max, never the bucket's upper bound. *)
  for v = 1 to 100 do
    Obs.Registry.observe h v
  done;
  let p50 = Obs.Registry.histogram_percentile h 0.5 in
  let p99 = Obs.Registry.histogram_percentile h 0.99 in
  check "p50 in its bucket" true (p50 >= 32.0 && p50 <= 64.0);
  check "p99 above p50" true (p99 > p50);
  check "p99 clamped to observed max" true (p99 <= 100.0);
  check "q=1 is the max" true (Obs.Registry.histogram_percentile h 1.0 <= 100.0);
  check "quantiles are monotone" true
    (let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ] in
     let vs = List.map (Obs.Registry.histogram_percentile h) qs in
     List.sort compare vs = vs);
  (* out-of-range q clamps instead of raising *)
  check "q<0 clamps" true (Obs.Registry.histogram_percentile h (-1.0) >= 0.0);
  check "q>1 clamps" true (Obs.Registry.histogram_percentile h 2.0 <= 100.0);
  (* a single-sample histogram reports that sample everywhere *)
  let h1 = Obs.Registry.histogram reg "test.pct.one" in
  Obs.Registry.observe h1 7;
  check "single sample p50" true (Obs.Registry.histogram_percentile h1 0.5 <= 7.0)

let test_registry_reset_hammer () =
  (* Two domains hammer observe/incr while this one alternates reset
     and snapshot reads: histogram_stats must never return a torn view
     (bucket total <> count, or sum inconsistent with count * max) no
     matter how resets interleave with observes. *)
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "hammer.hist" in
  let c = Obs.Registry.counter reg "hammer.count" in
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun seed ->
        Domain.spawn (fun () ->
            let v = ref (seed + 1) in
            while not (Atomic.get stop) do
              Obs.Registry.observe h (!v land 1023);
              Obs.Registry.incr c;
              v := (!v * 7) + 13
            done))
  in
  let checks = 5_000 in
  for i = 1 to checks do
    if i mod 50 = 0 then Obs.Registry.reset reg;
    let count, sum, max_v, buckets = Obs.Registry.histogram_stats h in
    let bucket_total = List.fold_left (fun a (_, n) -> a + n) 0 buckets in
    if bucket_total <> count then
      Alcotest.fail
        (Printf.sprintf "torn stats: %d bucketed samples vs count %d"
           bucket_total count);
    if sum < 0 || count < 0 then Alcotest.fail "negative totals";
    if sum > count * max 1 max_v then
      Alcotest.fail
        (Printf.sprintf "sum %d exceeds count %d * max %d" sum count max_v)
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  (* handles stay valid after the dust settles *)
  Obs.Registry.reset reg;
  Obs.Registry.observe h 3;
  let count, sum, _, _ = Obs.Registry.histogram_stats h in
  check_int "clean after hammer: count" 1 count;
  check_int "clean after hammer: sum" 3 sum

let test_registry_snapshot () =
  let reg = Obs.Registry.create () in
  Obs.Registry.incr (Obs.Registry.counter reg "b.second");
  Obs.Registry.incr (Obs.Registry.counter reg "a.first");
  Obs.Registry.set (Obs.Registry.gauge reg "c.gauge") 1.5;
  let names =
    List.map
      (function
        | Obs.Registry.Counter (n, _) -> n
        | Obs.Registry.Gauge (n, _) -> n
        | Obs.Registry.Histogram (n, _, _, _, _) -> n)
      (Obs.Registry.snapshot reg)
  in
  Alcotest.(check (list string))
    "first-registration order"
    [ "b.second"; "a.first"; "c.gauge" ]
    names;
  (* to_json must itself round-trip (bench artifacts embed it). *)
  let j = Obs.Registry.to_json reg in
  check "to_json round-trips" true (Obs.Json.equal j (roundtrip j))

(* --- Prometheus exposition ------------------------------------------- *)

let test_to_prometheus () =
  let reg = Obs.Registry.create () in
  Obs.Registry.add (Obs.Registry.counter reg "srv.jobs_done") 12;
  Obs.Registry.set (Obs.Registry.gauge reg "bdd.live-nodes") 42.5;
  let h = Obs.Registry.histogram reg "srv.e2e_ms" in
  List.iter (Obs.Registry.observe h) [ 1; 3; 3; 200 ];
  let text = Obs.Summary.to_prometheus reg in
  let lines = String.split_on_char '\n' text in
  let has sub = List.exists (fun l -> l = sub) lines in
  check "counter TYPE line" true (has "# TYPE icv_srv_jobs_done counter");
  check "counter sample" true (has "icv_srv_jobs_done 12");
  (* names are sanitized to [a-zA-Z0-9_] and prefixed *)
  check "gauge TYPE line" true (has "# TYPE icv_bdd_live_nodes gauge");
  check "histogram TYPE line" true (has "# TYPE icv_srv_e2e_ms histogram");
  (* buckets are cumulative and end at +Inf = count; upper bounds are
     the log2 bucket boundaries, so sample 1 lands under le="2" *)
  check "le=2 bucket" true (has {|icv_srv_e2e_ms_bucket{le="2"} 1|});
  check "le=4 bucket is cumulative" true
    (has {|icv_srv_e2e_ms_bucket{le="4"} 3|});
  check "+Inf equals count" true
    (has {|icv_srv_e2e_ms_bucket{le="+Inf"} 4|});
  check "sum line" true (has "icv_srv_e2e_ms_sum 207");
  check "count line" true (has "icv_srv_e2e_ms_count 4");
  (* every sample's base name has exactly one TYPE line (the CI lint
     enforces the same invariant on the live daemon's output) *)
  let type_names =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; _kind ] -> Some name
        | _ -> None)
      lines
  in
  check "no duplicate TYPE lines" true
    (List.sort_uniq compare type_names = List.sort compare type_names);
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then begin
        let name = List.hd (String.split_on_char ' ' l) in
        let name = List.hd (String.split_on_char '{' name) in
        let base =
          List.fold_left
            (fun n suffix ->
              if Filename.check_suffix n suffix then
                Filename.chop_suffix n suffix
              else n)
            name
            [ "_bucket"; "_sum"; "_count" ]
        in
        check (Printf.sprintf "sample %s has a TYPE line" name) true
          (List.mem base type_names);
        String.iter
          (fun ch ->
            if
              not
                ((ch >= 'a' && ch <= 'z')
                || (ch >= 'A' && ch <= 'Z')
                || (ch >= '0' && ch <= '9')
                || ch = '_')
            then Alcotest.fail (Printf.sprintf "bad metric name %s" name))
          name
      end)
    lines

(* --- Tracer ---------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "icv-test-obs" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_tracer_disabled () =
  (* The sinkless fast path still runs the thunk and returns its value;
     args must not be evaluated. *)
  let evaluated = ref false in
  let r =
    Obs.Tracer.with_span Obs.Tracer.disabled
      ~args:(fun () ->
        evaluated := true;
        [])
      "noop"
      (fun () -> 41 + 1)
  in
  check_int "value through disabled span" 42 r;
  check "args not evaluated" false !evaluated;
  check "disabled is disabled" false (Obs.Tracer.enabled Obs.Tracer.disabled)

let test_tracer_jsonl () =
  with_temp_file (fun path ->
      let tracer = Obs.Tracer.create () in
      let oc = open_out path in
      Obs.Tracer.add_sink tracer (Obs.Tracer.jsonl_sink tracer oc);
      let r =
        Obs.Tracer.with_span tracer ~cat:"test"
          ~args:(fun () -> [ ("k", Obs.Json.Int 7) ])
          "outer"
          (fun () ->
            Obs.Tracer.instant tracer "tick";
            (* spans close even when the region raises *)
            (try
               Obs.Tracer.with_span tracer "raiser" (fun () ->
                   raise Exit)
             with Exit -> ());
            "done")
      in
      Obs.Tracer.flush tracer;
      close_out oc;
      check_str "span result" "done" r;
      let lines = read_lines path in
      check_int "three events" 3 (List.length lines);
      let parsed = List.map Obs.Json.of_string lines in
      List.iter
        (fun j -> check "line round-trips" true (Obs.Json.equal j (roundtrip j)))
        parsed;
      let name j = Option.get Obs.Json.(to_str (Option.get (member "name" j))) in
      let names = List.map name parsed in
      check "has tick" true (List.mem "tick" names);
      check "has raiser" true (List.mem "raiser" names);
      check "has outer" true (List.mem "outer" names);
      (* the outer span closes last, carries its args, and its duration
         covers the inner one *)
      let outer = List.find (fun j -> name j = "outer") parsed in
      let f k j = Option.get Obs.Json.(to_float (Option.get (member k j))) in
      let raiser = List.find (fun j -> name j = "raiser") parsed in
      check "outer dur >= raiser dur" true (f "dur_us" outer >= f "dur_us" raiser);
      check_int "outer args" 7
        Obs.Json.(
          Option.get
            (to_int
               (Option.get
                  (member "k" (Option.get (member "args" outer)))))))

let test_tracer_chrome () =
  with_temp_file (fun path ->
      let tracer = Obs.Tracer.create () in
      let oc = open_out path in
      Obs.Tracer.add_sink tracer (Obs.Tracer.chrome_sink tracer oc);
      Obs.Tracer.with_span tracer "a" (fun () ->
          Obs.Tracer.instant tracer "i");
      Obs.Tracer.with_span tracer "b" (fun () -> ());
      Obs.Tracer.flush tracer;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      match Obs.Json.of_string content with
      | Obs.Json.List events ->
        check_int "three events" 3 (List.length events);
        List.iter
          (fun e ->
            let str k = Obs.Json.(to_str (Option.get (member k e))) in
            check "has ph" true (str "ph" = Some "X" || str "ph" = Some "i");
            check "has pid" true (Obs.Json.member "pid" e <> None);
            check "has ts" true (Obs.Json.member "ts" e <> None);
            if str "ph" = Some "X" then
              check "X has dur" true (Obs.Json.member "dur" e <> None))
          events
      | _ -> Alcotest.fail "chrome trace is not a JSON array")

let test_tracer_ambient () =
  with_temp_file (fun path ->
      let tracer = Obs.Tracer.create () in
      let oc = open_out path in
      Obs.Tracer.add_sink tracer (Obs.Tracer.jsonl_sink tracer oc);
      Obs.Tracer.with_attrs
        [ ("trace_id", Obs.Json.String "t-9"); ("k", Obs.Json.Int 1) ]
        (fun () ->
          Obs.Tracer.with_span tracer "plain" (fun () -> ());
          (* explicit args shadow the ambient key (member returns the
             first binding) *)
          Obs.Tracer.with_span tracer
            ~args:(fun () -> [ ("k", Obs.Json.Int 2) ])
            "shadowed"
            (fun () -> ());
          Obs.Tracer.instant tracer "tick";
          (* nesting appends; the inner scope restores on exit *)
          Obs.Tracer.with_attrs
            [ ("inner", Obs.Json.Bool true) ]
            (fun () -> Obs.Tracer.with_span tracer "nested" (fun () -> ())));
      check "context restored outside the scope" true
        (Obs.Tracer.current_attrs () = []);
      Obs.Tracer.with_span tracer "outside" (fun () -> ());
      (* a span timed externally lands at the requested place *)
      Obs.Tracer.span_at tracer "external" ~ts_ns:0L ~dur_ns:5_000L;
      Obs.Tracer.flush tracer;
      close_out oc;
      let parsed = List.map Obs.Json.of_string (read_lines path) in
      let by_name n =
        List.find
          (fun j ->
            Option.bind (Obs.Json.member "name" j) Obs.Json.to_str = Some n)
          parsed
      in
      let arg n k =
        Option.bind (Obs.Json.member "args" (by_name n)) (Obs.Json.member k)
      in
      check "span carries the ambient id" true
        (arg "plain" "trace_id" = Some (Obs.Json.String "t-9"));
      check "explicit args shadow ambient" true
        (arg "shadowed" "k" = Some (Obs.Json.Int 2));
      check "instants carry ambient attrs" true
        (arg "tick" "trace_id" = Some (Obs.Json.String "t-9"));
      check "nested scopes compose" true
        (arg "nested" "inner" = Some (Obs.Json.Bool true)
        && arg "nested" "trace_id" = Some (Obs.Json.String "t-9"));
      check "outside the scope no attrs leak" true
        (Obs.Json.member "args" (by_name "outside") = None);
      let ext = by_name "external" in
      let f k =
        Option.bind (Obs.Json.member k ext) Obs.Json.to_float
      in
      check "span_at honors the given duration" true (f "dur_us" = Some 5.0))

let test_tracer_ambient_across_domains () =
  (* A child domain starts with an empty ambient context; re-installing
     the parent's captured attrs (the Mc.Parallel / Srv.Pool pattern)
     carries the correlation id across the spawn. *)
  Obs.Tracer.with_attrs
    [ ("trace_id", Obs.Json.String "t-dom") ]
    (fun () ->
      let captured = Obs.Tracer.current_attrs () in
      let child =
        Domain.spawn (fun () ->
            let fresh = Obs.Tracer.current_attrs () in
            let installed =
              Obs.Tracer.with_attrs captured Obs.Tracer.current_attrs
            in
            (fresh, installed))
      in
      let fresh, installed = Domain.join child in
      check "child domain starts clean" true (fresh = []);
      check "captured attrs reinstall in the child" true
        (List.assoc_opt "trace_id" installed
        = Some (Obs.Json.String "t-dom")))

(* --- Iterlog --------------------------------------------------------- *)

let test_iterlog () =
  Obs.Iterlog.clear ();
  Obs.Iterlog.record
    {
      Obs.Iterlog.meth = "XICI";
      iteration = 1;
      conjuncts = 3;
      nodes = 100;
      elapsed_s = 0.5;
      live_nodes = 200;
    };
  Obs.Iterlog.record
    {
      Obs.Iterlog.meth = "XICI";
      iteration = 2;
      conjuncts = 2;
      nodes = 80;
      elapsed_s = 0.9;
      live_nodes = 250;
    };
  check_int "two rows" 2 (List.length (Obs.Iterlog.rows ()));
  check_int "recording order" 1
    (List.hd (Obs.Iterlog.rows ())).Obs.Iterlog.iteration;
  let j = Obs.Iterlog.to_json () in
  check "json round-trips" true (Obs.Json.equal j (roundtrip j));
  (match j with
  | Obs.Json.List [ r1; _ ] ->
    check_int "iteration field" 1
      Obs.Json.(Option.get (to_int (Option.get (member "iteration" r1))))
  | _ -> Alcotest.fail "iterlog json shape");
  Obs.Iterlog.clear ();
  check_int "cleared" 0 (List.length (Obs.Iterlog.rows ()))

(* --- End-to-end: real verification run under the global tracer ------- *)

let test_end_to_end () =
  Obs.Iterlog.clear ();
  Obs.Registry.reset Obs.Registry.default;
  with_temp_file (fun path ->
      let tracer = Obs.Tracer.create () in
      let oc = open_out path in
      Obs.Tracer.add_sink tracer (Obs.Tracer.jsonl_sink tracer oc);
      Obs.Tracer.set_global tracer;
      let model =
        Models.Typed_fifo.make { Models.Typed_fifo.default with depth = 3 }
      in
      let r =
        Fun.protect
          ~finally:(fun () ->
            Obs.Tracer.set_global Obs.Tracer.disabled;
            Obs.Tracer.flush tracer;
            close_out_noerr oc)
          (fun () ->
            Mc.Runner.run
              ~limits:(Mc.Limits.start ~max_iterations:50)
              Mc.Runner.Xici model)
      in
      check "proved" true (Mc.Report.is_proved r);
      let names =
        List.map
          (fun l ->
            Option.get
              Obs.Json.(to_str (Option.get (member "name" (of_string l)))))
          (read_lines path)
      in
      check "xici iteration spans present" true
        (List.mem "xici.iteration" names);
      check "tautology spans present" true (List.mem "taut.check" names);
      (* registry picked up the same run *)
      check "taut.checks counted" true
        (Obs.Registry.count (Obs.Registry.counter Obs.Registry.default "taut.checks")
         > 0);
      check "iterlog fed" true (Obs.Iterlog.rows () <> []);
      (* and the run-level snapshot both publishes bdd gauges and
         round-trips *)
      let snap = Mc.Telemetry.snapshot_json (Mc.Model.man model) in
      check "snapshot round-trips" true (Obs.Json.equal snap (roundtrip snap));
      let hits =
        Obs.Json.(
          member "metrics" snap
          |> Option.get
          |> member "bdd.cache.ite.hits"
          |> Option.get |> to_float |> Option.get)
      in
      check "ite cache hits published" true (hits > 0.0));
  Obs.Iterlog.clear ();
  Obs.Registry.reset Obs.Registry.default

let test_xici_policy_spans_have_parents () =
  (* Every policy span of an XICI run nests inside an mc span: the
     initial improve under xici.init, the others under xici.iteration.
     A policy span outside both would render as an orphan root in
     icv explain. *)
  let spans = ref [] in
  let tracer = Obs.Tracer.create () in
  Obs.Tracer.add_sink tracer
    {
      Obs.Tracer.on_span = (fun s -> spans := s :: !spans);
      on_instant = ignore;
      flush = ignore;
    };
  let model = Models.Network.make { Models.Network.procs = 3; bug = false } in
  let r =
    Obs.Tracer.with_global tracer (fun () ->
        Mc.Runner.run ~limits:(Mc.Limits.start ~max_iterations:50)
          Mc.Runner.Xici model)
  in
  check "proved" true (Mc.Report.is_proved r);
  let open Obs.Tracer in
  let contains p c =
    p.dom = c.dom && p.ts_ns <= c.ts_ns
    && Int64.add p.ts_ns p.dur_ns >= Int64.add c.ts_ns c.dur_ns
  in
  let policy = List.filter (fun s -> s.cat = "policy") !spans in
  let mc = List.filter (fun s -> s.cat = "mc") !spans in
  check "policy spans present" true (policy <> []);
  check "xici.init span present" true
    (List.exists (fun s -> s.name = "xici.init") mc);
  List.iter
    (fun c ->
      check (c.name ^ " has an mc parent") true
        (List.exists (fun p -> contains p c) mc))
    policy

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "print/parse round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick test_registry_counters;
          Alcotest.test_case "log2 histogram" `Quick test_registry_histogram;
          Alcotest.test_case "percentile estimator" `Quick
            test_registry_percentile;
          Alcotest.test_case "reset vs concurrent observe" `Quick
            test_registry_reset_hammer;
          Alcotest.test_case "snapshot and json" `Quick test_registry_snapshot;
          Alcotest.test_case "prometheus exposition" `Quick test_to_prometheus;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled fast path" `Quick test_tracer_disabled;
          Alcotest.test_case "jsonl sink" `Quick test_tracer_jsonl;
          Alcotest.test_case "chrome sink" `Quick test_tracer_chrome;
          Alcotest.test_case "ambient attributes and span_at" `Quick
            test_tracer_ambient;
          Alcotest.test_case "ambient context across domains" `Quick
            test_tracer_ambient_across_domains;
        ] );
      ( "iterlog",
        [ Alcotest.test_case "record/rows/json" `Quick test_iterlog ] );
      ( "integration",
        [
          Alcotest.test_case "traced verification run" `Quick test_end_to_end;
          Alcotest.test_case "XICI policy spans have parents" `Quick
            test_xici_policy_spans_have_parents;
        ] );
    ]
