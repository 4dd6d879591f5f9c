(* What the benchmark measures: workloads, end-to-end metrics with their
   regression bounds, and per-layer metrics with the end-to-end metric
   each should move.  BENCHMARK.json at the repository root is rendered
   from this module ([main.exe --spec]); a test keeps the two equal. *)

type workload = {
  name : string;
  why : string;
  scale : float;  (** Workload.generate scale of the trace. *)
  sample_n : int;  (** Signature-generation sample size N. *)
  mutated_share : float;  (** Leak packets re-encoded by a decodable mutator. *)
  signatures : int;  (** S: signature-set size on the authority. *)
}

let workloads =
  [ { name = "paper";
      why =
        "The paper's configuration: N=300 LZ77-NCD clustering dominates signature \
         generation; a quarter of leaks re-encoded; 500-signature sets synced by 200 \
         clients.";
      scale = 0.25; sample_n = 300; mutated_share = 0.25; signatures = 500 };
    { name = "evasion";
      why =
        "Every leak re-encoded, so normalization carries detection; N=100 and \
         100-signature sets shrink the NCD and O(set) changelog layers the paper \
         workload stresses.";
      scale = 0.25; sample_n = 100; mutated_share = 1.0; signatures = 100 } ]

(* Parameters every workload shares. *)
let chunked_share = 0.125  (* Bodies sent with chunked transfer coding. *)
let clients = 200
let relays = 2
let slice = 1  (* Client syncs per distribution step; one relay syncs per step. *)
let epoch = 100  (* Distribution steps between authority compactions. *)
let keep = 512  (* compact_keep of the authority and the relays. *)

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Each run splits its measuring time over three stages. *)
type stage = Siggen | Detect | Distrib

let stage_name = function Siggen -> "siggen" | Detect -> "detect" | Distrib -> "distrib"
let stages = [ Siggen; Detect; Distrib ]

(* Share of --seconds each stage measures for. *)
let stage_share = function Siggen -> 0.45 | Detect -> 0.25 | Distrib -> 0.3

type e2e = { e_name : string; e_unit : string; e_better : better; bound : float }

let e2e =
  let m e_name e_unit e_better bound = { e_name; e_unit; e_better; bound } in
  [ m "setup_s" "s" Lower 0.25;
    m "peak_heap_mib" "MiB" Lower 0.1;
    m "siggen_s" "s" Lower 0.25;
    m "siggen_tp" "ratio" Higher 0.2;
    m "siggen_tn" "ratio" Higher 0.05;
    m "detect_pps" "1/s" Higher 0.25;
    m "detect_norm_pps" "1/s" Higher 0.25;
    m "detect_norm_recall" "ratio" Higher 0.2;
    m "detect_norm_tn" "ratio" Higher 0.05;
    m "publish_p50_ms" "ms" Lower 0.25;
    m "publish_p99_ms" "ms" Lower 0.25;
    m "sync_p50_us" "us" Lower 0.25;
    m "sync_p99_us" "us" Lower 0.25;
    m "replay_s" "s" Lower 0.25 ]

type layer_metric = {
  l_name : string;
  l_unit : string;
  l_better : better;
  moves : string;  (** End-to-end metric(s) this layer metric should move. *)
}

let per_layer =
  let m l_name l_unit l_better moves = { l_name; l_unit; l_better; moves } in
  let lo = Lower and hi = Higher in
  [ m "workload.generate_s" "s" lo "setup_s";
    m "compress.calls" "count" lo "siggen_s";
    m "compress.us_per_call_64B" "us" lo "siggen_s";
    m "compress.us_per_call_256B" "us" lo "siggen_s";
    m "compress.us_per_call_1KiB" "us" lo "siggen_s";
    m "compress.predicted_pair_us" "us" lo "siggen_s";
    m "compress.prediction_err_pct" "%" lo "none (ladder check)";
    m "distance.matrix_s" "s" lo "siggen_s";
    m "distance.pairs" "count" lo "siggen_s";
    m "distance.ncd_pair_us" "us" lo "siggen_s";
    m "distance.singleton_hit_ratio" "ratio" hi "siggen_s";
    m "distance.pair_hit_ratio" "ratio" hi "siggen_s";
    m "distance.predicted_matrix_s" "s" lo "siggen_s";
    m "distance.prediction_err_pct" "%" lo "none (ladder check)";
    m "cluster.run_s" "s" lo "siggen_s";
    m "cluster.clusters" "count" hi "siggen_tp";
    m "tokens.extract_s" "s" lo "siggen_s";
    m "siggen.signatures" "count" hi "siggen_tp";
    m "siggen.rejected" "count" lo "siggen_tp";
    m "siggen.fp_rate" "ratio" lo "siggen_tn";
    m "detector.evaluate_s" "s" lo "siggen_s";
    m "detector.scan_s" "s" lo "detect_pps";
    m "detector.ns_per_packet" "ns" lo "detect_pps";
    m "detector.hits" "count" hi "detect_norm_recall";
    m "aho_corasick.mib_s" "MiB/s" hi "detect_pps";
    m "aho_corasick.predicted_scan_s" "s" lo "detect_pps";
    m "aho_corasick.prediction_err_pct" "%" lo "none (ladder check)";
    m "wire.parse_s" "s" lo "detect_pps, detect_norm_pps";
    m "wire.ns_per_packet" "ns" lo "detect_pps, detect_norm_pps";
    m "wire.bytes" "bytes" lo "detect_pps";
    m "wire.errors" "count" lo "detect_pps";
    m "normalize.scan_s" "s" lo "detect_norm_pps";
    m "normalize.views_per_packet" "count" lo "detect_norm_pps";
    m "normalize.budget_errors" "count" lo "detect_norm_recall";
    m "normalize.extra_hits" "count" hi "detect_norm_recall";
    m "normalize.fp_rate" "ratio" lo "detect_norm_tn";
    m "normalize.p99_us" "us" lo "detect_norm_pps";
    m "authority.publish_s" "s" lo "publish_p50_ms, publish_p99_ms";
    m "authority.serve_us" "us" lo "sync_p99_us";
    m "authority.requests" "count" lo "sync_p99_us";
    m "authority.predicted_publish_s" "s" lo "publish_p50_ms";
    m "authority.prediction_err_pct" "%" lo "none (ladder check)";
    m "changelog.append_us" "us" lo "publish_p50_ms, publish_p99_ms";
    m "changelog.since_us" "us" lo "sync_p50_us, sync_p99_us";
    m "changelog.wire_checksum_us" "us" lo "sync_p50_us, sync_p99_us";
    m "wal.append_us" "us" lo "publish_p50_ms, publish_p99_ms";
    m "wal.bytes" "bytes" lo "replay_s";
    m "wal.read_s" "s" lo "replay_s";
    m "relay.sync_s" "s" lo "sync_p50_us, sync_p99_us";
    m "relay.serve_us" "us" lo "sync_p50_us, sync_p99_us";
    m "relay.offload" "ratio" hi "sync_p99_us";
    m "relay.repairs" "count" lo "sync_p99_us";
    m "relay.resnapshots" "count" lo "sync_p99_us";
    m "delta_client.self_us" "us" lo "sync_p99_us";
    m "delta_client.deltas" "count" hi "sync_p50_us";
    m "delta_client.snapshots" "count" lo "sync_p99_us";
    m "delta_client.escalations" "count" lo "sync_p99_us";
    m "delta_client.bytes_per_sync" "bytes" lo "sync_p50_us";
    m "trace.siggen_coverage_pct" "%" hi "none (trace check)";
    m "trace.detect_coverage_pct" "%" hi "none (trace check)";
    m "trace.distrib_coverage_pct" "%" hi "none (trace check)";
    m "trace.siggen_overhead_pct" "%" lo "siggen_s";
    m "trace.detect_overhead_pct" "%" lo "detect_pps, detect_norm_pps";
    m "trace.distrib_overhead_pct" "%" lo "publish_p50_ms, sync_p50_us" ]

let run_seconds = 40
let command = [ "bash"; "perfbench/run.sh" ]
let paths = [ "perfbench" ]

module Json = Leakdetect_util.Json

let benchmark_json () =
  let str s = Json.String s in
  Json.Obj
    [ ("command", Json.List (List.map str command));
      ("paths", Json.List (List.map str paths));
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.List
          (List.map (fun w -> Json.Obj [ ("name", str w.name); ("why", str w.why) ]) workloads) );
      ( "end_to_end",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [ ("name", str e.e_name); ("unit", str e.e_unit);
                   ("better", str (better_name e.e_better)); ("bound", Json.Float e.bound) ])
             e2e) );
      ( "per_layer",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [ ("name", str l.l_name); ("unit", str l.l_unit);
                   ("better", str (better_name l.l_better)) ])
             per_layer) ) ]
  |> Json.to_string_pretty
