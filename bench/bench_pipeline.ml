(* Multicore pipeline benchmark.

   Measures the parallelized phases — distance-matrix build, whole-trace
   detection, streaming (fragment-fed) detection, end-to-end signature
   generation — at several job counts on a deterministic synthetic
   workload, verifies that every parallel result is identical to the
   sequential one (exact float equality on matrices, byte equality on
   serialized signatures, equal detection bitmaps and metrics), and
   writes BENCH_pipeline.json.

   Every benched phase draws its pool from [Pool.warm], so domain spin-up
   is paid once per job count for the whole process — the bench measures
   steady-state phase cost, exactly what a long-lived CLI process pays.

   Exits non-zero if any parallel output diverges from jobs=1, so CI can
   run it as a correctness gate as well as a perf probe.

   Usage: bench_pipeline.exe [--quick] [--jobs N] [--gate-speedup X]
                             [--throughput-out FILE]
     --quick              tiny workload and sample sizes (CI smoke)
     --jobs N             highest job count to bench (default 4); the
                          benched set is 1, 2, 4, ... doubling up to N
     --gate-speedup X     fail unless the largest-N end-to-end run at the
                          highest job count reached X× over jobs=1; the
                          gate is skipped (with a note) when the machine
                          has fewer hardware domains than the highest job
                          count, where the speedup is physically capped
     --throughput-out F   also write the streaming-throughput section to
                          F as a standalone JSON artifact *)

module Json = Leakdetect_util.Json
module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Workload = Leakdetect_android.Workload
module Pipeline = Leakdetect_core.Pipeline
module Distance = Leakdetect_core.Distance
module Siggen = Leakdetect_core.Siggen
module Detector = Leakdetect_core.Detector
module Signature_io = Leakdetect_core.Signature_io
module Metrics = Leakdetect_core.Metrics
module Compressor = Leakdetect_compress.Compressor
module Dist_matrix = Leakdetect_cluster.Dist_matrix
module Pool = Leakdetect_parallel.Pool
module Obs = Leakdetect_obs.Obs
module Normalize = Leakdetect_normalize.Normalize
module Packet = Leakdetect_http.Packet

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let arg_value name parse ~default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then
      match parse Sys.argv.(i + 1) with
      | Some v -> v
      | None -> failwith (Printf.sprintf "bench_pipeline: bad value for %s" name)
    else find (i + 1)
  in
  find 0

let max_jobs =
  arg_value "--jobs" ~default:4 (fun s ->
      match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

let gate_speedup =
  arg_value "--gate-speedup" ~default:None (fun s ->
      match float_of_string_opt s with Some x when x > 0. -> Some (Some x) | _ -> None)

let throughput_out =
  arg_value "--throughput-out" ~default:None (fun s -> Some (Some s))

let job_counts =
  let rec doubling j acc = if j >= max_jobs then List.rev (max_jobs :: acc) else doubling (2 * j) (j :: acc) in
  doubling 1 []

let scale = if quick then 0.02 else 0.25
let matrix_ns = if quick then [ 40; 80 ] else [ 100; 300; 500 ]
let e2e_ns = if quick then [ 40 ] else [ 100; 300; 500 ]

let divergences = ref 0

let check name ok =
  if not ok then begin
    incr divergences;
    Printf.printf "DIVERGENCE: %s\n%!" name
  end

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let matrices_equal a b =
  Dist_matrix.size a = Dist_matrix.size b
  && begin
    let n = Dist_matrix.size a in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Dist_matrix.get a i j <> Dist_matrix.get b i j then ok := false
      done
    done;
    !ok
  end

let serialize_signatures sigs = String.concat "\n" (List.map Signature_io.to_line sigs)

let dataset =
  Printf.printf "workload: seed 42, scale %.2f...\n%!" scale;
  let ds, s = time (fun () -> Workload.generate ~seed:42 ~scale ()) in
  Printf.printf "generated %d packets in %.1fs (benching jobs = %s; recommended domains here: %d)\n%!"
    (Array.length ds.Workload.records) s
    (String.concat ", " (List.map string_of_int job_counts))
    (Pool.recommended_jobs ());
  ds

let suspicious, normal = Workload.split dataset
let all_packets = Workload.packets dataset

(* One signature set shared by the detection, streaming and allocation
   sections, so their numbers are comparable. *)
let detector =
  let sample_n = if quick then 40 else 300 in
  let sample = Sample.without_replacement (Prng.create 7) sample_n suspicious in
  let gen = Siggen.generate (Distance.create ()) sample in
  Detector.create gen.Siggen.signatures

let sections : (string * Json.t) list ref = ref []
let record name v = sections := (name, v) :: !sections

(* Largest-N end-to-end speedup at the highest job count, for --gate-speedup. *)
let e2e_gate : (int * float) option ref = ref None

(* --- distance matrix ---------------------------------------------------- *)

let bench_matrix () =
  Printf.printf "\n-- distance matrix build --\n%!";
  List.iter
    (fun n ->
      let sample = Sample.without_replacement (Prng.create 7) n suspicious in
      let n = Array.length sample in
      let reference = ref None in
      let seq_seconds = ref nan in
      let rows =
        List.map
          (fun jobs ->
            let dist = Distance.create () in
            let pool = Pool.warm jobs in
            let m, seconds = time (fun () -> Distance.matrix ?pool dist sample) in
            (match !reference with
            | None ->
              reference := Some m;
              seq_seconds := seconds
            | Some r -> check (Printf.sprintf "matrix N=%d jobs=%d" n jobs) (matrices_equal r m));
            let speedup = !seq_seconds /. seconds in
            let st = Compressor.Cache.stats (Distance.ncd_cache dist) in
            Printf.printf
              "  N=%-4d jobs=%d  %7.3fs  speedup %4.2fx  (singleton %d hit / %d miss, %d unfrozen pair C(xy), frozen %d)\n%!"
              n jobs seconds speedup st.Compressor.Cache.hits st.Compressor.Cache.misses
              st.Compressor.Cache.pair_misses st.Compressor.Cache.frozen_misses;
            Json.Obj
              [ ("jobs", Json.Int jobs); ("seconds", Json.Float seconds);
                ("speedup_vs_jobs1", Json.Float speedup);
                ("cache_hits", Json.Int st.Compressor.Cache.hits);
                ("cache_misses", Json.Int st.Compressor.Cache.misses);
                ("pair_computations", Json.Int st.Compressor.Cache.pair_misses);
                ("frozen_misses", Json.Int st.Compressor.Cache.frozen_misses) ])
          job_counts
      in
      record (Printf.sprintf "matrix_n%d" n) (Json.Obj [ ("n", Json.Int n); ("runs", Json.List rows) ]))
    matrix_ns

(* --- whole-trace detection ---------------------------------------------- *)

let bench_detection () =
  Printf.printf "\n-- whole-trace detection (%d packets) --\n%!" (Array.length all_packets);
  Printf.printf "  signature set: %d signatures\n%!" (Detector.signature_count detector);
  let reference = ref None in
  let seq_seconds = ref nan in
  let rows =
    List.map
      (fun jobs ->
        let pool = Pool.warm jobs in
        let bitmap, seconds =
          time (fun () -> Detector.detect_bitmap ?pool detector all_packets)
        in
        (match !reference with
        | None ->
          reference := Some bitmap;
          seq_seconds := seconds
        | Some r -> check (Printf.sprintf "detection bitmap jobs=%d" jobs) (r = bitmap));
        let speedup = !seq_seconds /. seconds in
        let throughput = float_of_int (Array.length all_packets) /. seconds in
        Printf.printf "  jobs=%d  %7.3fs  %9.0f packets/s  speedup %4.2fx\n%!" jobs seconds
          throughput speedup;
        Json.Obj
          [ ("jobs", Json.Int jobs); ("seconds", Json.Float seconds);
            ("packets_per_sec", Json.Float throughput);
            ("speedup_vs_jobs1", Json.Float speedup) ])
      job_counts
  in
  record "detection"
    (Json.Obj
       [ ("packets", Json.Int (Array.length all_packets));
         ("signatures", Json.Int (Detector.signature_count detector));
         ("runs", Json.List rows) ])

(* --- streaming detection ------------------------------------------------- *)

(* RFC 7230 chunked framing of [s] with an irregular chunk width, so the
   fragment seams land at awkward offsets. *)
let chunk_encode s =
  let buf = Buffer.create (String.length s + 64) in
  let off = ref 0 in
  let w = ref 5 in
  while !off < String.length s do
    let l = min !w (String.length s - !off) in
    Buffer.add_string buf (Printf.sprintf "%x\r\n" l);
    Buffer.add_substring buf s !off l;
    Buffer.add_string buf "\r\n";
    off := !off + l;
    w := 1 + ((!w * 3) mod 11)
  done;
  Buffer.add_string buf "0\r\n\r\n";
  Buffer.contents buf

let bench_streaming () =
  Printf.printf "\n-- streaming detection (fragment-fed flows, batch throughput) --\n%!";
  (* Flow equivalence: feed every packet as its canonical content stream,
     the body split into tiny fragments (width cycling 1..7) or framed as a
     chunked transfer coding, and require the verdict to equal whole-packet
     detection.  This is the reassembly-free path the monitor runs. *)
  let stream = Detector.Stream.create detector in
  let flow = Detector.Stream.open_flow stream in
  let frag_mismatch = ref 0 and chunk_mismatch = ref 0 in
  let feed_fragments i s =
    let w = 1 + (i mod 7) in
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      let l = min w (len - !off) in
      Detector.Stream.feed flow ~off:!off ~len:l s;
      off := !off + l
    done
  in
  let verify_seconds = ref 0. in
  let () =
    let _, seconds =
      time (fun () ->
          Array.iteri
            (fun i (p : Packet.t) ->
              let c = p.Packet.content in
              let expect = Detector.detects detector p in
              feed_fragments i c.Packet.request_line;
              Detector.Stream.feed flow "\n";
              feed_fragments i c.Packet.cookie;
              Detector.Stream.feed flow "\n";
              feed_fragments i c.Packet.body;
              if Detector.Stream.close flow <> None <> expect then incr frag_mismatch;
              Detector.Stream.feed flow c.Packet.request_line;
              Detector.Stream.feed flow "\n";
              Detector.Stream.feed flow c.Packet.cookie;
              Detector.Stream.feed flow "\n";
              (match Detector.Stream.feed_chunked flow (chunk_encode c.Packet.body) with
              | Ok _ -> ()
              | Error _ -> incr chunk_mismatch);
              if Detector.Stream.close flow <> None <> expect then incr chunk_mismatch)
            all_packets)
    in
    verify_seconds := seconds
  in
  check "streaming fragment-fed flow = whole-packet detect" (!frag_mismatch = 0);
  check "streaming chunked-fed flow = whole-packet detect" (!chunk_mismatch = 0);
  Printf.printf "  flow equivalence: %d packets x 2 framings in %.3fs (%d mismatches)\n%!"
    (Array.length all_packets) !verify_seconds (!frag_mismatch + !chunk_mismatch);
  (* Batch throughput: packets/sec and MiB/s through Detector.Stream at each
     job count, against the sequential bitmap. *)
  let reference = ref None in
  let seq_seconds = ref nan in
  let rows =
    List.map
      (fun jobs ->
        let pool = Pool.warm jobs in
        let stream = Detector.Stream.create ?pool detector in
        let bitmap, seconds = time (fun () -> Detector.Stream.detect_batch stream all_packets) in
        (match !reference with
        | None ->
          reference := Some bitmap;
          seq_seconds := seconds
        | Some r -> check (Printf.sprintf "streaming batch bitmap jobs=%d" jobs) (r = bitmap));
        let st = Detector.Stream.stats stream in
        let speedup = !seq_seconds /. seconds in
        let pps = float_of_int st.Detector.Stream.packets /. seconds in
        let mibps = float_of_int st.Detector.Stream.bytes /. seconds /. 1048576. in
        Printf.printf "  jobs=%d  %7.3fs  %9.0f packets/s  %7.1f MiB/s  speedup %4.2fx\n%!"
          jobs seconds pps mibps speedup;
        Json.Obj
          [ ("jobs", Json.Int jobs); ("seconds", Json.Float seconds);
            ("packets_per_sec", Json.Float pps); ("mib_per_sec", Json.Float mibps);
            ("bytes", Json.Int st.Detector.Stream.bytes);
            ("hits", Json.Int st.Detector.Stream.hits);
            ("speedup_vs_jobs1", Json.Float speedup) ])
      job_counts
  in
  let section =
    Json.Obj
      [ ("packets", Json.Int (Array.length all_packets));
        ("signatures", Json.Int (Detector.signature_count detector));
        ("flow_equivalence_mismatches", Json.Int (!frag_mismatch + !chunk_mismatch));
        ("runs", Json.List rows) ]
  in
  record "streaming" section;
  section

(* --- detection allocation ------------------------------------------------ *)

let bench_allocation () =
  Printf.printf "\n-- detection allocation (per-packet scratch vs reused scratch) --\n%!";
  let naive () =
    (* The convenience API: a fresh matched-set and matcher state per
       packet — what the sequential path allocated before scratch reuse. *)
    Array.fold_left
      (fun acc p -> if Detector.detects detector p then acc + 1 else acc)
      0 all_packets
  in
  let reused () = Detector.count_detected detector all_packets in
  ignore (naive ());
  ignore (reused ());
  let a0 = Gc.allocated_bytes () in
  let c_naive = naive () in
  let a1 = Gc.allocated_bytes () in
  let c_reused = reused () in
  let a2 = Gc.allocated_bytes () in
  let naive_bytes = a1 -. a0 and reused_bytes = a2 -. a1 in
  check "allocation: naive and scratch-reusing counts agree" (c_naive = c_reused);
  check "allocation: scratch reuse allocates less than per-packet"
    (reused_bytes < naive_bytes);
  let per_packet b = b /. float_of_int (Array.length all_packets) in
  Printf.printf
    "  per-packet: %10.0f B  reused scratch: %7.0f B  (%.1fx less, %d packets)\n%!"
    (per_packet naive_bytes) (per_packet reused_bytes)
    (naive_bytes /. Float.max 1. reused_bytes)
    (Array.length all_packets);
  record "detection_allocation"
    (Json.Obj
       [ ("packets", Json.Int (Array.length all_packets));
         ("naive_bytes", Json.Float naive_bytes);
         ("reused_scratch_bytes", Json.Float reused_bytes);
         ("naive_bytes_per_packet", Json.Float (per_packet naive_bytes));
         ("reused_bytes_per_packet", Json.Float (per_packet reused_bytes)) ])

(* --- end to end ---------------------------------------------------------- *)

let bench_end_to_end () =
  Printf.printf "\n-- end-to-end pipeline (sample -> cluster -> sign -> detect) --\n%!";
  List.iter
    (fun n ->
      let reference = ref None in
      let seq_seconds = ref nan in
      let rows =
        List.map
          (fun jobs ->
            let pool = Pool.warm jobs in
            let outcome, seconds =
              time (fun () ->
                  Pipeline.run ?pool ~rng:(Prng.create (7 + n)) ~n ~suspicious ~normal ())
            in
            let sigs = serialize_signatures outcome.Pipeline.signatures in
            (match !reference with
            | None ->
              reference := Some (sigs, outcome.Pipeline.metrics);
              seq_seconds := seconds
            | Some (ref_sigs, ref_metrics) ->
              check (Printf.sprintf "e2e signatures N=%d jobs=%d" n jobs) (ref_sigs = sigs);
              check
                (Printf.sprintf "e2e metrics N=%d jobs=%d" n jobs)
                (compare ref_metrics outcome.Pipeline.metrics = 0));
            let speedup = !seq_seconds /. seconds in
            if jobs = max_jobs then e2e_gate := Some (n, speedup);
            Printf.printf "  N=%-4d jobs=%d  %7.3fs  speedup %4.2fx  (%d signatures, TP %.1f%%)\n%!"
              n jobs seconds speedup
              (List.length outcome.Pipeline.signatures)
              (100. *. outcome.Pipeline.metrics.Metrics.true_positive);
            Json.Obj
              [ ("jobs", Json.Int jobs); ("seconds", Json.Float seconds);
                ("speedup_vs_jobs1", Json.Float speedup);
                ("signatures", Json.Int (List.length outcome.Pipeline.signatures));
                ("tp", Json.Float outcome.Pipeline.metrics.Metrics.true_positive);
                ("fp", Json.Float outcome.Pipeline.metrics.Metrics.false_positive) ])
          job_counts
      in
      record (Printf.sprintf "end_to_end_n%d" n)
        (Json.Obj [ ("n", Json.Int n); ("runs", Json.List rows) ]))
    e2e_ns

(* --- observability overhead ---------------------------------------------- *)

let bench_obs_overhead () =
  Printf.printf "\n-- observability overhead (noop vs active registry) --\n%!";
  let n = if quick then 40 else 300 in
  let run obs =
    Pipeline.run
      ~config:(Pipeline.Config.with_obs obs Pipeline.Config.default)
      ~rng:(Prng.create (7 + n)) ~n ~suspicious ~normal ()
  in
  (* Warm-up so allocator state doesn't favour whichever variant runs second. *)
  ignore (run Obs.noop);
  let noop_outcome, noop_seconds = time (fun () -> run Obs.noop) in
  let obs = Obs.create () in
  let active_outcome, active_seconds = time (fun () -> run obs) in
  check "obs-active signatures identical to noop"
    (serialize_signatures noop_outcome.Pipeline.signatures
    = serialize_signatures active_outcome.Pipeline.signatures);
  check "obs-active metrics identical to noop"
    (compare noop_outcome.Pipeline.metrics active_outcome.Pipeline.metrics = 0);
  check "obs-active run recorded"
    (Obs.Counter.value (Obs.counter obs "leakdetect_pipeline_runs_total") = 1);
  let overhead_pct = 100. *. (active_seconds -. noop_seconds) /. noop_seconds in
  Printf.printf "  N=%-4d noop %7.3fs  active %7.3fs  overhead %+.2f%%\n%!" n
    noop_seconds active_seconds overhead_pct;
  record "obs_overhead"
    (Json.Obj
       [ ("n", Json.Int n); ("noop_seconds", Json.Float noop_seconds);
         ("active_seconds", Json.Float active_seconds);
         ("overhead_pct", Json.Float overhead_pct) ])

(* --- normalization overhead and off-gate identity ------------------------ *)

let bench_normalize_overhead () =
  Printf.printf "\n-- canonicalization lattice (off-gate identity, enabled cost) --\n%!";
  let n = if quick then 40 else 300 in
  let run config = Pipeline.run ~config ~rng:(Prng.create (7 + n)) ~n ~suspicious ~normal () in
  ignore (run Pipeline.Config.default);
  let off_outcome, off_seconds = time (fun () -> run Pipeline.Config.default) in
  let explicit_off =
    run (Pipeline.Config.with_normalize None Pipeline.Config.default)
  in
  let normalize = Normalize.create () in
  let on_outcome, on_seconds =
    time (fun () ->
        run (Pipeline.Config.with_normalize (Some normalize) Pipeline.Config.default))
  in
  check "normalize-off explicit None identical to default"
    (serialize_signatures off_outcome.Pipeline.signatures
     = serialize_signatures explicit_off.Pipeline.signatures
    && compare off_outcome.Pipeline.metrics explicit_off.Pipeline.metrics = 0);
  check "normalize-on signatures identical to off"
    (serialize_signatures off_outcome.Pipeline.signatures
    = serialize_signatures on_outcome.Pipeline.signatures);
  (* On clean (never re-encoded) traffic the lattice may only add matches,
     never lose one: recall must not drop with normalization enabled. *)
  check "normalize-on recall >= off"
    (on_outcome.Pipeline.metrics.Metrics.true_positive
    >= off_outcome.Pipeline.metrics.Metrics.true_positive);
  let overhead_pct = 100. *. (on_seconds -. off_seconds) /. off_seconds in
  Printf.printf "  N=%-4d off %7.3fs  on %7.3fs  overhead %+.2f%%\n%!" n off_seconds
    on_seconds overhead_pct;
  record "normalize_overhead"
    (Json.Obj
       [ ("n", Json.Int n); ("off_seconds", Json.Float off_seconds);
         ("on_seconds", Json.Float on_seconds);
         ("overhead_pct", Json.Float overhead_pct) ])

let () =
  bench_matrix ();
  bench_detection ();
  let streaming_section = bench_streaming () in
  bench_allocation ();
  bench_end_to_end ();
  bench_obs_overhead ();
  bench_normalize_overhead ();
  let doc =
    Json.Obj
      (("quick", Json.Bool quick)
      :: ("scale", Json.Float scale)
      :: ("job_counts", Json.List (List.map (fun j -> Json.Int j) job_counts))
      :: ("recommended_domains", Json.Int (Pool.recommended_jobs ()))
      :: ("total_packets", Json.Int (Array.length all_packets))
      :: ("divergences", Json.Int !divergences)
      :: List.rev !sections)
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc (Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_pipeline.json\n";
  (match throughput_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Json.to_string_pretty
         (Json.Obj
            [ ("recommended_domains", Json.Int (Pool.recommended_jobs ()));
              ("streaming", streaming_section) ]));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" file);
  let gate_failed =
    match gate_speedup with
    | None -> false
    | Some floor ->
      if Pool.recommended_jobs () < max_jobs then begin
        Printf.printf
          "speedup gate skipped: %d hardware domain(s) < %d benched jobs (speedup physically capped)\n"
          (Pool.recommended_jobs ()) max_jobs;
        false
      end
      else begin
        match !e2e_gate with
        | None ->
          Printf.printf "speedup gate FAILED: no end-to-end run at jobs=%d measured\n" max_jobs;
          true
        | Some (n, speedup) ->
          Printf.printf "speedup gate: e2e N=%d jobs=%d reached %.2fx (floor %.2fx): %s\n" n
            max_jobs speedup floor
            (if speedup >= floor then "ok" else "FAILED");
          speedup < floor
      end
  in
  if !divergences > 0 then begin
    Printf.printf "FAILED: %d parallel/sequential divergence(s)\n" !divergences;
    exit 1
  end
  else Printf.printf "all parallel outputs identical to sequential\n";
  if gate_failed then exit 1
