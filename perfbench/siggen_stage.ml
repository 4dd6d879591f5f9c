(* Signature generation: Pipeline.run with the default configuration
   (exact backend, group average, LZ77 NCD, every distance component) on
   a fresh sample and a fresh Distance context per repetition, since
   users pay a cold cache on every run. *)

module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Packet = Leakdetect_http.Packet
module Pipeline = Leakdetect_core.Pipeline
module Siggen = Leakdetect_core.Siggen
module Distance = Leakdetect_core.Distance
module Detector = Leakdetect_core.Detector
module Metrics = Leakdetect_core.Metrics
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Compressor = Leakdetect_compress.Compressor
module Tokens = Leakdetect_text.Tokens
module Cluster = Leakdetect_cluster.Cluster
module Dendrogram = Leakdetect_cluster.Dendrogram

type data = { suspicious : Packet.t array; normal : Packet.t array }

let config = Pipeline.default_config
let rep_rng ~seed r = Prng.create (Hashtbl.hash ("siggen", seed, r))
let serialize sigs = String.concat "\n" (List.map Signature_io.to_line sigs)

(* TP/FP recomputed packet by packet through Detector.detects must equal
   what Pipeline.run reported. *)
let recheck data (o : Pipeline.outcome) =
  let det = Detector.create o.signatures in
  let count ps = Array.fold_left (fun a p -> if Detector.detects det p then a + 1 else a) 0 ps in
  let m =
    Metrics.compute
      { Metrics.n = o.sample_size;
        sensitive_total = Array.length data.suspicious;
        sensitive_detected = count data.suspicious;
        normal_total = Array.length data.normal;
        normal_detected = count data.normal }
  in
  m = o.metrics

let run_rep (w : Spec.workload) ~seed data r =
  let rng = rep_rng ~seed r in
  let c0 = Span.cpu_s () in
  let o =
    Pipeline.run ~config ~rng ~n:w.sample_n ~suspicious:data.suspicious ~normal:data.normal ()
  in
  (o, Span.cpu_since c0)

(* Repetitions accumulate here; each one draws its own sample. *)
type acc = {
  times : Stats.Sample.t;
  tps : Stats.Sample.t;
  tns : Stats.Sample.t;
  mutable reps : int;
  mutable first : Signature.t list option;  (** The first repetition's signatures. *)
}

let start () =
  { times = Stats.Sample.create (); tps = Stats.Sample.create (); tns = Stats.Sample.create ();
    reps = 0; first = None }

let rep (w : Spec.workload) ~seed data acc =
  let o, dt = run_rep w ~seed data acc.reps in
  let ok = recheck data o in
  Tally.op ok;
  Tally.check ok "siggen rep %d: per-packet Detector.detects disagrees with Pipeline.Metrics" acc.reps;
  Stats.Sample.add acc.times dt;
  Stats.Sample.add acc.tps o.metrics.Metrics.true_positive;
  Stats.Sample.add acc.tns (1. -. o.metrics.Metrics.false_positive);
  if acc.first = None then acc.first <- Some o.signatures;
  acc.reps <- acc.reps + 1;
  o.signatures

(* siggen_s, siggen_tp, siggen_tn: medians over the repetitions. *)
let result acc = (Stats.Sample.median acc.times, Stats.Sample.median acc.tps, Stats.Sample.median acc.tns)

(* --- traced rebuild ----------------------------------------------------- *)

(* Siggen.generate rebuilt from its public steps, with a span around each
   layer call.  The default configuration's path only: exact backend,
   hierarchical algorithm, threshold cut. *)
let rebuild dist sample data =
  let sg = config.Pipeline.siggen in
  let matrix = Span.with_ "distance.matrix" (fun () -> Distance.matrix dist sample) in
  let tree =
    match Span.with_ "cluster.run" (fun () -> Cluster.run sg.Siggen.algorithm matrix) with
    | Cluster.Hierarchy t -> t
    | Cluster.Empty | Cluster.Partition _ -> failwith "rebuild: default algorithm is hierarchical"
  in
  let threshold =
    match sg.Siggen.cut with
    | Siggen.Auto | Siggen.Threshold _ -> Siggen.cut_threshold_value sg dist
    | Siggen.Count _ | Siggen.Every_merge -> failwith "rebuild: default cut is a threshold"
  in
  let clusters =
    Span.with_ "cluster.cut" (fun () ->
        List.map Dendrogram.members (Dendrogram.cut ~threshold tree))
  in
  let next_id = ref 0 and rejected = ref 0 in
  let seen = Hashtbl.create 64 in
  let signatures =
    List.filter_map
      (fun members ->
        let contents = List.map (fun i -> Packet.content_string sample.(i)) members in
        let tokens =
          Span.with_ "tokens.extract" (fun () ->
              Tokens.extract ~min_len:sg.Siggen.min_token_len contents)
        in
        Span.with_ "siggen.filter" (fun () ->
            match tokens with
            | [] ->
                incr rejected;
                None
            | tokens ->
                let s =
                  Signature.make ~id:!next_id ~mode:sg.Siggen.mode
                    ~cluster_size:(List.length members) tokens
                in
                if Signature.specificity s < sg.Siggen.min_specificity || Hashtbl.mem seen tokens
                then begin
                  incr rejected;
                  None
                end
                else begin
                  Hashtbl.add seen tokens ();
                  incr next_id;
                  Some s
                end))
      clusters
  in
  let metrics =
    Span.with_ "detector.evaluate" (fun () ->
        let det = Detector.create signatures in
        Metrics.compute
          { Metrics.n = Array.length sample;
            sensitive_total = Array.length data.suspicious;
            sensitive_detected = Detector.count_detected det data.suspicious;
            normal_total = Array.length data.normal;
            normal_detected = Detector.count_detected det data.normal })
  in
  (signatures, List.length clusters, !rejected, metrics)

(* Microseconds per call of [f] on each input, median over passes. *)
let us_per_call inputs f =
  let per_pass =
    Array.init 15 (fun _ ->
        let t0 = Span.now_ns () in
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
        float_of_int (Span.now_ns () - t0) /. 1e3 /. float_of_int (Array.length inputs))
  in
  Stats.median per_pass

(* Piecewise-linear cost model through the compressor ladder points,
   flat below the first and extrapolated past the last. *)
let interpolate points len =
  let x = float_of_int len in
  let line (x0, y0) (x1, y1) = y0 +. ((x -. x0) *. (y1 -. y0) /. (x1 -. x0)) in
  let rec go = function
    | p0 :: (p1 :: rest as tail) -> if x <= fst p1 || rest = [] then line p0 p1 else go tail
    | [ (_, y) ] -> y
    | [] -> 0.
  in
  match points with (x0, y0) :: _ when x <= x0 -> y0 | _ -> go points

let err_pct ~predicted ~measured = 100. *. (predicted -. measured) /. measured

let trace (w : Spec.workload) ~seed data =
  let rng () = rep_rng ~seed 0 in
  (* Untraced reference: the same sample through Pipeline.run, timed as the
     median of three runs because the first one in the process also pays
     to grow the heap.  Every timed window starts with no major GC cycle
     in flight. *)
  let untraced =
    Array.init 3 (fun _ ->
        Gc.major ();
        let t0 = Span.now_ns () in
        let o =
          Pipeline.run ~config ~rng:(rng ()) ~n:w.sample_n ~suspicious:data.suspicious
            ~normal:data.normal ()
        in
        (o, Span.seconds_since t0))
  in
  let o = fst untraced.(0) in
  let untraced_s = Stats.median (Array.map snd untraced) in
  let dist = Pipeline.Config.distance config in
  Gc.major ();
  Span.start ();
  let t0 = Span.now_ns () in
  let sample, (signatures, clusters, rejected, metrics) =
    Span.with_ "stage.siggen" (fun () ->
        let sample =
          Span.with_ "siggen.sample" (fun () ->
              Sample.without_replacement (rng ()) w.sample_n data.suspicious)
        in
        (sample, rebuild dist sample data))
  in
  let traced_s = Span.seconds_since t0 in
  Span.stop ();
  let identical = serialize signatures = serialize o.signatures && metrics = o.metrics in
  Tally.op identical;
  Tally.check identical "siggen trace: rebuilt signatures differ from Pipeline.run's";
  let st = Compressor.Cache.stats (Distance.ncd_cache dist) in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let fields (p : Packet.t) =
    [ p.content.Packet.request_line; p.content.Packet.cookie; p.content.Packet.body ]
  in
  (* Compressor ladder over windows of the sample's own field bytes. *)
  let stream = String.concat "" (List.concat_map fields (Array.to_list sample)) in
  let algo = config.Pipeline.compressor in
  let ladder len =
    let k = 24 in
    let inputs =
      Array.init k (fun i -> String.sub stream (i * (String.length stream - len) / k) len)
    in
    us_per_call inputs (Compressor.length_bits algo)
  in
  let points = List.map (fun len -> (float_of_int len, ladder len)) [ 64; 256; 1024 ] in
  (* NCD pair ladder: singletons warm, pair cache cold, sampled pairs. *)
  let ldist = Pipeline.Config.distance config in
  let lcache = Distance.ncd_cache ldist in
  let t0 = Span.now_ns () in
  Array.iter
    (fun p -> List.iter (fun s -> ignore (Compressor.Cache.length_bits lcache s)) (fields p))
    sample;
  let warm_s = Span.seconds_since t0 in
  let singles = (Compressor.Cache.stats lcache).Compressor.Cache.misses in
  let singleton_us = 1e6 *. warm_s /. float_of_int (max 1 singles) in
  let prng = Prng.create (Hashtbl.hash ("ladder", seed)) in
  let n = Array.length sample in
  let pairs =
    Array.init 400 (fun _ ->
        let i = Prng.int prng n in
        let j = (i + 1 + Prng.int prng (n - 1)) mod n in
        (sample.(i), sample.(j)))
  in
  let before = (Compressor.Cache.stats lcache).Compressor.Cache.pair_misses in
  let t0 = Span.now_ns () in
  Array.iter (fun (a, b) -> ignore (Distance.d_header ldist a b)) pairs;
  let pair_s = Span.seconds_since t0 in
  let pair_misses = (Compressor.Cache.stats lcache).Compressor.Cache.pair_misses - before in
  let ncd_pair_us = 1e6 *. pair_s /. float_of_int (max 1 pair_misses) in
  (* The compressor ladder's prediction of one pair miss: C(xy) over the
     concatenated field lengths of the same pairs. *)
  let concat_lens =
    Array.to_list pairs
    |> List.concat_map (fun (a, b) ->
           List.filter_map
             (fun (x, y) -> if x = "" && y = "" then None else Some (String.length x + String.length y))
             (List.combine (fields a) (fields b)))
  in
  let predicted_pair_us =
    List.fold_left (fun acc l -> acc +. interpolate points l) 0. concat_lens
    /. float_of_int (max 1 (List.length concat_lens))
  in
  let spans = Span.all () in
  let names = Span.by_name spans in
  let total name = (Span.find name names).Span.total_s in
  let matrix_s = total "distance.matrix" in
  let predicted_matrix_s =
    ((float_of_int st.Compressor.Cache.pair_misses *. ncd_pair_us)
    +. (float_of_int st.Compressor.Cache.misses *. singleton_us))
    /. 1e6
  in
  let coverage = Span.coverage spans (Span.find_span "stage.siggen" spans) in
  let ladder_point len = List.assoc (float_of_int len) points in
  let layer_metrics =
    [ ("compress.calls", float_of_int (st.Compressor.Cache.misses + st.Compressor.Cache.pair_misses));
      ("compress.us_per_call_64B", ladder_point 64);
      ("compress.us_per_call_256B", ladder_point 256);
      ("compress.us_per_call_1KiB", ladder_point 1024);
      ("compress.predicted_pair_us", predicted_pair_us);
      ("compress.prediction_err_pct", err_pct ~predicted:predicted_pair_us ~measured:ncd_pair_us);
      ("distance.matrix_s", matrix_s);
      ("distance.pairs", float_of_int (n * (n - 1) / 2));
      ("distance.ncd_pair_us", ncd_pair_us);
      ("distance.singleton_hit_ratio", ratio st.Compressor.Cache.hits st.Compressor.Cache.misses);
      ("distance.pair_hit_ratio", ratio st.Compressor.Cache.pair_hits st.Compressor.Cache.pair_misses);
      ("distance.predicted_matrix_s", predicted_matrix_s);
      ("distance.prediction_err_pct", err_pct ~predicted:predicted_matrix_s ~measured:matrix_s);
      ("cluster.run_s", total "cluster.run" +. total "cluster.cut");
      ("cluster.clusters", float_of_int clusters);
      ("tokens.extract_s", total "tokens.extract");
      ("siggen.signatures", float_of_int (List.length signatures));
      ("siggen.rejected", float_of_int rejected);
      ("siggen.fp_rate", metrics.Metrics.false_positive);
      ("detector.evaluate_s", total "detector.evaluate");
      ("trace.siggen_coverage_pct", 100. *. coverage);
      ("trace.siggen_overhead_pct", 100. *. (traced_s -. untraced_s) /. untraced_s) ]
  in
  (layer_metrics, o.signatures)
