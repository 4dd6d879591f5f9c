(* The benchmark's own tests: order statistics against known values,
   span self times, seed determinism of the inputs, and BENCHMARK.json
   kept equal to the spec it is rendered from. *)

open Perfbench
module Workload = Leakdetect_android.Workload
module Sample = Leakdetect_util.Sample
module Packet = Leakdetect_http.Packet
module Pipeline = Leakdetect_core.Pipeline
module Detector = Leakdetect_core.Detector
module Normalize = Leakdetect_normalize.Normalize
module Signature_io = Leakdetect_core.Signature_io

let close = Alcotest.float 1e-9

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "median 1..100" 50.5 (Stats.median xs);
  Alcotest.check close "p99 1..100" 99.01 (Stats.percentile 0.99 xs);
  Alcotest.check close "p0" 1. (Stats.percentile 0. xs);
  Alcotest.check close "p100" 100. (Stats.percentile 1. xs);
  Alcotest.check close "median unsorted" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "single" 7. (Stats.percentile 0.99 [| 7. |]);
  Alcotest.(check int) "beyond p99 of 1..1000" 10
    (Stats.beyond 0.99 (Array.init 1000 (fun i -> float_of_int i)))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q3 "two samples" (0.5, 2., 3.5) (Stats.quartiles [| 3.; 1. |]);
  Alcotest.check q3 "five samples" (1.5, 3., 4.5) (Stats.quartiles [| 5.; 1.; 4.; 2.; 3. |])

let span ?(parent = Span.no_parent) id start_ns stop_ns =
  { Span.id; name = "t.s"; parent; start_ns; stop_ns }

let check_self_bounds spans =
  List.iter
    (fun (s, self) ->
      if self < 0 || self > Span.duration s then
        Alcotest.failf "span %d: self %d outside [0, %d]" s.Span.id self (Span.duration s))
    (Span.self_times spans)

let test_self_time () =
  let spans =
    [ span 0 0 100; span ~parent:0 1 10 30; span ~parent:0 2 20 50; span ~parent:0 3 90 130 ]
  in
  let self = List.map (fun (s, v) -> (s.Span.id, v)) (Span.self_times spans) in
  (* Children cover [10, 50] and [90, 100] of the root: 50 of 100. *)
  Alcotest.(check int) "root self" 50 (List.assoc 0 self);
  Alcotest.(check int) "leaf self" 20 (List.assoc 1 self);
  check_self_bounds spans;
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let root = span 0 0 1000 in
    let kids =
      List.init (Random.State.int rng 8) (fun i ->
          let a = Random.State.int rng 1200 - 100 in
          span ~parent:0 (i + 1) a (a + Random.State.int rng 400))
    in
    check_self_bounds (root :: kids)
  done

let test_recorded_spans () =
  Span.reset ();
  Span.start ();
  Span.with_ "a.outer" (fun () ->
      Span.with_ "b.inner" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
      Span.with_ "b.inner" ignore);
  (try Span.with_ "c.raises" (fun () -> failwith "boom") with Failure _ -> ());
  Span.stop ();
  Span.with_ "d.untraced" ignore;
  let spans = Span.all () in
  Alcotest.(check (list string)) "names in start order" [ "a.outer"; "b.inner"; "b.inner"; "c.raises" ]
    (List.map (fun s -> s.Span.name) spans);
  let outer = List.hd spans in
  Alcotest.(check bool) "inner spans parented" true
    (List.for_all (fun s -> s.Span.name <> "b.inner" || s.Span.parent = outer.Span.id) spans);
  check_self_bounds spans;
  let b = Span.find "b" (Span.by_layer spans) in
  Alcotest.(check int) "layer calls" 2 b.Span.calls;
  Span.reset ()

(* A digest of everything a workload's seed determines: the generated
   trace, the siggen sample and the signatures it yields, the rendered
   wire bytes with their reference verdicts, and the distribution set. *)
type counts = { packets : int; leaks : int; mutated : int; signatures : int; flagged : int }

let digest (w : Spec.workload) ~seed =
  let ds = Workload.generate ~seed ~scale:w.scale () in
  let suspicious, normal = Workload.split ds in
  let buf = Buffer.create 65536 in
  let sample = Sample.without_replacement (Siggen_stage.rep_rng ~seed 0) w.sample_n suspicious in
  Array.iter (fun p -> Buffer.add_string buf (Packet.content_string p)) sample;
  let o, _ = Siggen_stage.run_rep w ~seed { Siggen_stage.suspicious; normal } 0 in
  Buffer.add_string buf (Siggen_stage.serialize o.Pipeline.signatures);
  let items = Detect_stage.prepare w ~seed ds.Workload.records in
  let det = Detector.create o.Pipeline.signatures in
  let normalize = Normalize.create () in
  let flagged = ref 0 and mutated = ref 0 in
  Array.iteri
    (fun i (it : Detect_stage.item) ->
      Buffer.add_string buf it.raw;
      if Detector.detects ~normalize det it.packet then incr flagged;
      if it.packet <> ds.Workload.records.(i).Leakdetect_http.Trace.packet then incr mutated)
    items;
  let sigs = Distrib_stage.initial_signatures w ~seed in
  List.iter (fun s -> Buffer.add_string buf (Signature_io.to_line s)) sigs;
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    { packets = Array.length items;
      leaks = Array.length suspicious;
      mutated = !mutated;
      signatures = List.length o.Pipeline.signatures;
      flagged = !flagged } )

let tiny =
  { (List.hd Spec.workloads) with
    Spec.scale = 0.01; sample_n = 20; signatures = 10 }

let test_seed_determinism () =
  let d1, c1 = digest tiny ~seed:1 in
  let d1', c1' = digest tiny ~seed:1 in
  let d2, _ = digest tiny ~seed:2 in
  Alcotest.(check string) "same seed, same digest" d1 d1';
  Alcotest.(check bool) "same seed, same counts" true (c1 = c1');
  Alcotest.(check bool) "other seed, other inputs" true (d1 <> d2);
  Alcotest.(check bool) "some leaks mutated" true
    (c1.mutated > 0 && c1.mutated <= c1.leaks)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json is rendered from Spec"
    (Spec.benchmark_json () ^ "\n")
    (read_file "../BENCHMARK.json")

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] );
      ( "span",
        [ Alcotest.test_case "self time bounds" `Quick test_self_time;
          Alcotest.test_case "recorded spans" `Quick test_recorded_spans ] );
      ( "inputs",
        [ Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ] ) ]
