(* leakdetect — command-line front end for the reproduction.

   Subcommands mirror the paper's workflow (Fig. 3):
     generate   build a synthetic application trace and write it to disk
     stats      corpus statistics (Tables I-III, Figure 2 summary)
     sign       cluster a sample of suspicious packets, emit signatures
     detect     apply a signature file to a trace
     evaluate   full pipeline with the paper's TP/FN/FP metrics
     monitor    replay a trace through the on-device flow-control app
     chaos      fault-injection soak over the ingest/distribute/enforce path,
                including crash/recover trials against the authority journal
     store      recover and inspect a signature authority's state directory
     evade      adversarial mutation replay: per-mutator recall with and
                without the canonicalization lattice
     soak       distribution soak: delta-sync clients against journaled origins,
                optionally behind a relay tier, with crash points, partitions
                and convergence invariants *)

open Cmdliner

module Workload = Leakdetect_android.Workload
module Trace_stats = Leakdetect_android.Trace_stats
module Trace = Leakdetect_http.Trace
module Packet = Leakdetect_http.Packet
module Pipeline = Leakdetect_core.Pipeline
module Metrics = Leakdetect_core.Metrics
module Siggen = Leakdetect_core.Siggen
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Distance = Leakdetect_core.Distance
module Detector = Leakdetect_core.Detector
module Sensitive = Leakdetect_core.Sensitive
module Compressor = Leakdetect_compress.Compressor
module Agglomerative = Leakdetect_cluster.Agglomerative
module Cluster = Leakdetect_cluster.Cluster
module Clustering = Leakdetect_core.Clustering
module Sketch = Leakdetect_sketch.Sketch
module Table = Leakdetect_util.Table
module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Fault = Leakdetect_fault.Fault
module Flow_control = Leakdetect_monitor.Flow_control
module Signature_client = Leakdetect_monitor.Signature_client
module Wal = Leakdetect_store.Wal
module Crc32 = Leakdetect_util.Crc32
module Pool = Leakdetect_parallel.Pool
module Payload_check = Leakdetect_core.Payload_check
module Request = Leakdetect_http.Request
module Response = Leakdetect_http.Response
module Obs = Leakdetect_obs.Obs
module Normalize = Leakdetect_normalize.Normalize
module Mutator = Leakdetect_adversary.Mutator
module Harness = Leakdetect_adversary.Harness
module Json = Leakdetect_util.Json
module Topology = Leakdetect_distrib.Topology
module Authority = Leakdetect_distrib.Authority
module Protocol = Leakdetect_distrib.Protocol
module Delta_client = Leakdetect_distrib.Delta_client

let exit_err fmt = Printf.ksprintf (fun m -> prerr_endline ("leakdetect: " ^ m); exit 1) fmt

(* --- logging --- *)

let setup_log style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let setup_log_t =
  Term.(const setup_log $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* --- common options --- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload generator seed.")

let scale_t =
  Arg.(value
      & opt float 1.0
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Traffic scale factor; 1.0 reproduces the paper-sized trace.")

let trace_t =
  Arg.(value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Read packets from a trace file instead of generating a workload.")

let jobs_t =
  Arg.(value
      & opt int (Pool.recommended_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel phases (distance matrix, whole-trace \
             detection).  1 forces the sequential path; results are identical for \
             every value.  Default: the machine's recommended domain count.")

let normalize_t =
  Arg.(value & flag
      & info [ "normalize" ]
          ~doc:
            "Match over the bounded canonicalization lattice (percent / base64 / \
             hex / case-fold / chunked decoded views) in addition to the raw \
             bytes, so re-encoded leaks are still caught.")

let normalize_of ?obs flag = if flag then Some (Normalize.create ?obs ()) else None

(* An unreadable path sniffs as text; the loader then reports it. *)
let sniff_binary path =
  Leakdetect_http.Trace.with_input ~binary:true path (fun ic ->
      Ok (try really_input_string ic 4 = Leakdetect_http.Trace_binary.magic with End_of_file -> false))
  = Ok true

let load_records ~trace ~seed ~scale =
  match trace with
  | Some path -> (
    let result =
      if sniff_binary path then Leakdetect_http.Trace_binary.load path
      else Trace.load path
    in
    match result with
    | Ok (records, _) -> Array.of_list records
    | Error e -> exit_err "cannot load %s: %s" path e)
  | None -> (Workload.generate ~seed ~scale ()).Workload.records

let load_signatures path =
  match Signature_io.load ~on_error:`Skip path with
  | Error e -> exit_err "cannot load %s: %s" path e
  | Ok (signatures, skips) ->
    if skips.Trace.skipped > 0 then begin
      Printf.eprintf "leakdetect: %s: skipped %d malformed signature line(s)\n" path
        skips.Trace.skipped;
      List.iter
        (fun (lineno, e) -> Printf.eprintf "  line %d: %s\n" lineno e)
        skips.Trace.sample
    end;
    signatures

let split_records records =
  let suspicious = ref [] and normal = ref [] in
  Array.iter
    (fun r ->
      if r.Trace.labels = [] then normal := r.Trace.packet :: !normal
      else suspicious := r.Trace.packet :: !suspicious)
    records;
  (Array.of_list (List.rev !suspicious), Array.of_list (List.rev !normal))

(* --- generate --- *)

let generate_cmd =
  let run () seed scale output binary =
    let ds = Workload.generate ~seed ~scale () in
    let records = Array.to_list ds.Workload.records in
    if binary then Leakdetect_http.Trace_binary.save output records
    else Trace.save output records;
    let total, sens, norm = Trace_stats.totals ds in
    Printf.printf "wrote %s (%s): %d packets (%d sensitive, %d normal) from %d apps\n"
      output (if binary then "binary" else "text") total sens norm
      (Array.length ds.Workload.apps)
  in
  let output =
    Arg.(value & opt string "trace.tsv"
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let binary =
    Arg.(value & flag
        & info [ "binary" ] ~doc:"Write the compact binary format instead of text.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic application trace.")
    Term.(const run $ setup_log_t $ seed_t $ scale_t $ output $ binary)

(* --- stats --- *)

let stats_cmd =
  let run seed scale trace top =
    match trace with
    | Some _ ->
      (* From a trace file: destination and label statistics only (the
         permission table needs the app population, which traces do not
         carry). *)
      let records = load_records ~trace ~seed ~scale in
      let total = Array.length records in
      let sens =
        Array.fold_left
          (fun acc r -> if r.Trace.labels = [] then acc else acc + 1)
          0 records
      in
      Printf.printf "packets: %d total, %d sensitive, %d normal\n\n" total sens
        (total - sens);
      let module SM = Map.Make (String) in
      let dests =
        Array.fold_left
          (fun acc (r : Trace.record) ->
            let d =
              Leakdetect_net.Domain.registrable r.Trace.packet.Packet.dst.Packet.host
            in
            SM.update d (function None -> Some 1 | Some c -> Some (c + 1)) acc)
          SM.empty records
      in
      let rows =
        SM.bindings dests
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < top)
        |> List.map (fun (d, c) -> [ d; string_of_int c ])
      in
      print_string
        (Table.render ~title:"Top destination domains"
           ~columns:[ ("destination", Table.Left); ("packets", Table.Right) ]
           rows);
      let labels = Hashtbl.create 16 in
      Array.iter
        (fun (r : Trace.record) ->
          List.iter
            (fun l ->
              Hashtbl.replace labels l
                (1 + Option.value ~default:0 (Hashtbl.find_opt labels l)))
            r.Trace.labels)
        records;
      print_newline ();
      print_string
        (Table.render ~title:"Sensitive labels"
           ~columns:[ ("label", Table.Left); ("packets", Table.Right) ]
           (Hashtbl.fold (fun l c acc -> [ l; string_of_int c ] :: acc) labels []
           |> List.sort compare))
    | None ->
      let ds = Workload.generate ~seed ~scale () in
      let total, sens, norm = Trace_stats.totals ds in
      Printf.printf "packets: %d total, %d sensitive, %d normal\n\n" total sens norm;
      print_string
        (Table.render ~title:"Permission combinations (Table I)"
           ~columns:[ ("I L P C", Table.Left); ("apps", Table.Right) ]
           (List.map
              (fun r -> [ r.Trace_stats.pattern; string_of_int r.Trace_stats.count ])
              (Trace_stats.table1 ds)));
      print_newline ();
      print_string
        (Table.render ~title:"Top destinations (Table II)"
           ~columns:
             [ ("destination", Table.Left); ("packets", Table.Right); ("apps", Table.Right) ]
           (List.map
              (fun (r : Trace_stats.dest_row) ->
                [ r.Trace_stats.domain; string_of_int r.Trace_stats.packets;
                  string_of_int r.Trace_stats.apps ])
              (Trace_stats.table2_top ~n:top ds)));
      print_newline ();
      print_string
        (Table.render ~title:"Sensitive information (Table III)"
           ~columns:
             [ ("kind", Table.Left); ("packets", Table.Right); ("apps", Table.Right);
               ("destinations", Table.Right) ]
           (List.map
              (fun (r : Trace_stats.kind_row) ->
                [ Sensitive.paper_name r.Trace_stats.kind;
                  string_of_int r.Trace_stats.packets;
                  string_of_int r.Trace_stats.apps;
                  string_of_int r.Trace_stats.destinations ])
              (Trace_stats.table3 ds)));
      let f2 = Trace_stats.figure2 ds in
      Printf.printf
        "\nFigure 2 summary: %d apps, mean %.1f destinations, max %d; %d with one destination\n"
        f2.Trace_stats.total_apps f2.Trace_stats.mean f2.Trace_stats.max
        f2.Trace_stats.one_destination
  in
  let top =
    Arg.(value & opt int 26 & info [ "top" ] ~docv:"N" ~doc:"Destinations to list.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print corpus statistics (Tables I-III, Figure 2).")
    Term.(const run $ seed_t $ scale_t $ trace_t $ top)

(* --- shared pipeline configuration flags --- *)

let n_t =
  Arg.(value & opt int 500
      & info [ "n"; "sample" ] ~docv:"N" ~doc:"Suspicious packets sampled for signature generation.")

let compressor_t =
  let parse s =
    match Compressor.of_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown compressor %S (lz77|lzw|huffman)" s))
  in
  let print ppf c = Format.pp_print_string ppf (Compressor.name c) in
  Arg.(value
      & opt (conv (parse, print)) Compressor.Lz77
      & info [ "compressor" ] ~docv:"ALGO" ~doc:"NCD compressor: lz77, lzw or huffman.")

let linkage_t =
  let parse s =
    match Agglomerative.linkage_of_name s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown linkage %S" s))
  in
  let print ppf l = Format.pp_print_string ppf (Agglomerative.linkage_name l) in
  Arg.(value
      & opt (conv (parse, print)) Agglomerative.Group_average
      & info [ "linkage" ] ~docv:"LINKAGE"
          ~doc:"Cluster linkage: group-average (paper), single or complete.")

let cut_t =
  Arg.(value
      & opt (some float) None
      & info [ "cut" ] ~docv:"DIST"
          ~doc:"Dendrogram cut threshold; default: a quarter of the maximum distance.")

let clustering_t =
  Arg.(value
      & opt (enum [ ("exact", `Exact); ("sketch", `Sketch) ]) `Exact
      & info [ "clustering" ] ~docv:"BACKEND"
          ~doc:"Clustering backend: $(b,exact) builds the full O(N^2) NCD matrix \
                (the paper's procedure); $(b,sketch) buckets near-duplicate payloads \
                with minhash/LSH first and runs exact NCD only inside buckets.")

let lsh_bands_t =
  Arg.(value
      & opt int Clustering.default_sketch.Sketch.bands
      & info [ "lsh-bands" ] ~docv:"B"
          ~doc:"LSH bands for --clustering sketch; more bands lower the similarity \
                needed to share a bucket.")

let lsh_rows_t =
  Arg.(value
      & opt int Clustering.default_sketch.Sketch.rows
      & info [ "lsh-rows" ] ~docv:"R"
          ~doc:"Minhash slots per LSH band; more rows raise the similarity needed \
                to share a bucket.")

let backend_of ~clustering ~lsh_bands ~lsh_rows =
  match clustering with
  | `Exact -> Clustering.Exact
  | `Sketch ->
    let params =
      { Clustering.default_sketch with Sketch.bands = lsh_bands; rows = lsh_rows }
    in
    (match Sketch.validate params with
    | Ok () -> Clustering.Sketch params
    | Error msg -> exit_err "invalid sketch parameters: %s" msg)

let pp_bucket_stats (stats : Clustering.stats) =
  if stats.Clustering.backend = "sketch" then
    Printf.printf
      "sketch prefilter: %d buckets (largest %d), %d of %d exact pairs (%.1f%% avoided)\n"
      stats.Clustering.buckets stats.Clustering.largest_bucket
      stats.Clustering.exact_pairs stats.Clustering.total_pairs
      (if stats.Clustering.total_pairs = 0 then 0.
       else
         100.
         *. float_of_int (stats.Clustering.total_pairs - stats.Clustering.exact_pairs)
         /. float_of_int stats.Clustering.total_pairs)

let config_of ?(clustering = Clustering.Exact) ~compressor ~linkage ~cut () =
  let siggen =
    { Siggen.default with
      Siggen.algorithm = Cluster.Agglomerative linkage;
      cut = (match cut with Some v -> Siggen.Threshold v | None -> Siggen.Auto);
    }
  in
  { Pipeline.default_config with Pipeline.compressor; siggen; clustering }

(* --- sign --- *)

let sign_cmd =
  let run seed scale trace n compressor linkage cut clustering lsh_bands lsh_rows jobs
      output =
    let records = load_records ~trace ~seed ~scale in
    let suspicious, _ = split_records records in
    if Array.length suspicious = 0 then exit_err "trace has no sensitive packets";
    let rng = Prng.create seed in
    let sample = Sample.without_replacement rng n suspicious in
    let clustering = backend_of ~clustering ~lsh_bands ~lsh_rows in
    let config = config_of ~clustering ~compressor ~linkage ~cut () in
    let dist =
      Distance.create ~components:config.Pipeline.components
        ~compressor:config.Pipeline.compressor ()
    in
    let result =
      let pool = Pool.warm jobs in
      Siggen.generate ~config:{ config with Pipeline.pool } dist sample
    in
    Signature_io.save output result.Siggen.signatures;
    Printf.printf "sampled %d suspicious packets -> %d clusters, %d signatures (%d rejected)\n"
      (Array.length sample)
      (List.length result.Siggen.clusters)
      (List.length result.Siggen.signatures)
      result.Siggen.rejected;
    Option.iter pp_bucket_stats result.Siggen.stats;
    Printf.printf "wrote %s\n" output
  in
  let output =
    Arg.(value & opt string "signatures.tsv"
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output signature file.")
  in
  Cmd.v
    (Cmd.info "sign" ~doc:"Cluster suspicious packets and generate signatures.")
    Term.(const run $ seed_t $ scale_t $ trace_t $ n_t $ compressor_t $ linkage_t $ cut_t
          $ clustering_t $ lsh_bands_t $ lsh_rows_t $ jobs_t $ output)

(* --- cluster --- *)

let cluster_cmd =
  let run () seed scale trace n compressor linkage cut clustering lsh_bands lsh_rows
      jobs newick =
    let records = load_records ~trace ~seed ~scale in
    let suspicious, _ = split_records records in
    if Array.length suspicious = 0 then exit_err "trace has no sensitive packets";
    let rng = Prng.create seed in
    let sample = Sample.without_replacement rng n suspicious in
    let backend = backend_of ~clustering ~lsh_bands ~lsh_rows in
    let config = config_of ~clustering:backend ~compressor ~linkage ~cut () in
    let dist =
      Distance.create ~components:config.Pipeline.components
        ~compressor:config.Pipeline.compressor ()
    in
    let pool = Pool.warm jobs in
    let algorithm = Cluster.Agglomerative linkage in
    (* The exact path keeps its own matrix so the cophenetic correlation can
       be reported; sketch mode never materializes the full matrix, so the
       bucket statistics stand in for it. *)
    let tree, cophenetic, stats =
      match backend with
      | Clustering.Exact -> (
        let matrix = Distance.matrix ?pool dist sample in
        match Cluster.run algorithm matrix with
        | Cluster.Hierarchy tree ->
          (tree, Some (Leakdetect_cluster.Cophenetic.correlation matrix tree), None)
        | Cluster.Empty | Cluster.Partition _ -> exit_err "empty sample")
      | Clustering.Sketch _ -> (
        let r = Clustering.run ?pool ~backend ~algorithm dist sample in
        match r.Clustering.output with
        | Cluster.Hierarchy tree -> (tree, None, Some r.Clustering.stats)
        | Cluster.Empty | Cluster.Partition _ -> exit_err "empty sample")
    in
    begin
      let threshold =
        match cut with
        | Some v -> v
        | None -> 0.25 *. Distance.max_possible dist
      in
      let forest = Leakdetect_cluster.Dendrogram.cut ~threshold tree in
      Printf.printf "clustered %d packets at threshold %.2f -> %d clusters\n\n"
        (Array.length sample) threshold (List.length forest);
      List.iteri
        (fun i subtree ->
          let members = Leakdetect_cluster.Dendrogram.members subtree in
          let hosts =
            List.sort_uniq compare
              (List.map (fun j -> sample.(j).Packet.dst.Packet.host) members)
          in
          Printf.printf "cluster %2d: %3d packets, height %.3f, hosts: %s\n" i
            (List.length members)
            (Leakdetect_cluster.Dendrogram.height subtree)
            (String.concat ", " hosts))
        forest;
      Option.iter
        (fun c -> Printf.printf "\ncophenetic correlation: %.3f\n" c)
        cophenetic;
      Option.iter pp_bucket_stats stats;
      match newick with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Leakdetect_cluster.Dendrogram.to_newick
             ~label:(fun i ->
               Printf.sprintf "p%d_%s" i
                 (String.map
                    (fun c -> if c = '.' then '_' else c)
                    sample.(i).Packet.dst.Packet.host))
             tree);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" path
    end
  in
  let n_small =
    Arg.(value & opt int 60
        & info [ "n"; "sample" ] ~docv:"N" ~doc:"Packets to sample and cluster.")
  in
  let newick =
    Arg.(value
        & opt (some string) None
        & info [ "newick" ] ~docv:"FILE" ~doc:"Write the dendrogram in Newick format.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Cluster a sample of suspicious packets and report the dendrogram.")
    Term.(const run $ setup_log_t $ seed_t $ scale_t $ trace_t $ n_small $ compressor_t
          $ linkage_t $ cut_t $ clustering_t $ lsh_bands_t $ lsh_rows_t $ jobs_t
          $ newick)

(* --- detect --- *)

let detect_cmd =
  let run seed scale trace sig_file jobs verbose normalize =
    let records = load_records ~trace ~seed ~scale in
    let signatures = load_signatures sig_file in
    let detector = Detector.create signatures in
    let normalize = normalize_of normalize in
    let packets = Array.map (fun r -> r.Trace.packet) records in
    let stream = Detector.Stream.create ?pool:(Pool.warm jobs) ?normalize detector in
    let t0 = Unix.gettimeofday () in
    let bitmap = Detector.Stream.detect_batch stream packets in
    let elapsed = Unix.gettimeofday () -. t0 in
    let detected = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bitmap in
    if verbose then
      Array.iteri
        (fun i r ->
          if bitmap.(i) then
            match Detector.first_match_normalized ?normalize detector r.Trace.packet with
            | Some (s, steps) ->
              Printf.printf "app %d -> %s matched signature #%d%s\n" r.Trace.app_id
                r.Trace.packet.Packet.dst.Packet.host s.Signature.id
                (match steps with
                | [] -> ""
                | steps ->
                  " via " ^ String.concat "+" (List.map Normalize.step_name steps))
            | None -> ())
        records;
    Printf.printf "%d of %d packets matched %d signatures\n" detected
      (Array.length records) (List.length signatures);
    let st = Detector.Stream.stats stream in
    if elapsed > 0. then
      Printf.printf "scanned %d bytes in %.3fs (%.0f packets/s, %.1f MiB/s)\n"
        st.Detector.Stream.bytes elapsed
        (float_of_int st.Detector.Stream.packets /. elapsed)
        (float_of_int st.Detector.Stream.bytes /. elapsed /. 1048576.)
  in
  let sig_file =
    Arg.(required
        & opt (some string) None
        & info [ "signatures" ] ~docv:"FILE" ~doc:"Signature file from `sign`.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each matching packet.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Apply a signature file to a trace.")
    Term.(const run $ seed_t $ scale_t $ trace_t $ sig_file $ jobs_t $ verbose
          $ normalize_t)

(* --- evaluate --- *)

let evaluate_cmd =
  let run () seed scale trace ns compressor linkage cut clustering lsh_bands lsh_rows
      jobs bayes normalize =
    let records = load_records ~trace ~seed ~scale in
    let suspicious, normal = split_records records in
    Printf.printf "dataset: %d suspicious, %d normal%s\n\n" (Array.length suspicious)
      (Array.length normal)
      (if bayes then " (probabilistic signatures)" else "");
    let clustering = backend_of ~clustering ~lsh_bands ~lsh_rows in
    let config =
      Pipeline.Config.with_normalize (normalize_of normalize)
        (config_of ~clustering ~compressor ~linkage ~cut ())
    in
    let rows =
      let pool = Pool.warm jobs in
      List.map
        (fun n ->
          let rng = Prng.create (seed + n) in
          if bayes then begin
            let o =
              Leakdetect_core.Bayes.run ~config ?pool ~rng ~n ~suspicious ~normal ()
            in
            Metrics.to_row o.Leakdetect_core.Bayes.metrics
            @ [ string_of_int o.Leakdetect_core.Bayes.n_tokens ^ " tokens" ]
          end
          else begin
            let o = Pipeline.run ~config ?pool ~rng ~n ~suspicious ~normal () in
            Metrics.to_row o.Pipeline.metrics
            @ [ string_of_int (List.length o.Pipeline.signatures) ^ " sigs" ]
          end)
        ns
    in
    print_string
      (Table.render
         ~columns:
           [ ("N", Table.Right); ("TP%", Table.Right); ("FN%", Table.Right);
             ("FP%", Table.Right); ("detail", Table.Right) ]
         rows)
  in
  let ns =
    Arg.(value
        & opt (list int) [ 100; 200; 300; 400; 500 ]
        & info [ "ns" ] ~docv:"N1,N2,..." ~doc:"Sample sizes to evaluate (Figure 4 sweep).")
  in
  let bayes =
    Arg.(value & flag
        & info [ "bayes" ]
            ~doc:"Use probabilistic (Bayes) signatures instead of conjunctions.")
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Run the full pipeline and report the paper's TP/FN/FP metrics.")
    Term.(const run $ setup_log_t $ seed_t $ scale_t $ trace_t $ ns $ compressor_t
          $ linkage_t $ cut_t $ clustering_t $ lsh_bands_t $ lsh_rows_t $ jobs_t
          $ bayes $ normalize_t)

(* --- monitor --- *)

let monitor_cmd =
  let run seed scale trace sig_file limit normalize =
    let records = load_records ~trace ~seed ~scale in
    let signatures = load_signatures sig_file in
    let monitor =
      Leakdetect_monitor.Flow_control.create ?normalize:(normalize_of normalize)
        signatures
    in
    let n = min limit (Array.length records) in
    for i = 0 to n - 1 do
      let r = records.(i) in
      ignore
        (Leakdetect_monitor.Flow_control.process monitor ~app_id:r.Trace.app_id
           r.Trace.packet)
    done;
    let allowed, blocked, prompted = Leakdetect_monitor.Flow_control.stats monitor in
    Printf.printf "processed %d packets: %d allowed, %d blocked, %d prompted\n\n" n allowed
      blocked prompted;
    print_string (Leakdetect_monitor.Report.render ~limit:15 monitor)
  in
  let sig_file =
    Arg.(required
        & opt (some string) None
        & info [ "signatures" ] ~docv:"FILE" ~doc:"Signature file from `sign`.")
  in
  let limit =
    Arg.(value & opt int 10_000
        & info [ "limit" ] ~docv:"N" ~doc:"Packets to replay through the monitor.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay a trace through the on-device information-flow-control application.")
    Term.(const run $ seed_t $ scale_t $ trace_t $ sig_file $ limit $ normalize_t)

(* --- chaos --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spit path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* A fresh temporary directory, removed when the process exits (error
   exits included). *)
let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  at_exit (fun () -> if Sys.file_exists d then rm_rf d);
  d

(* The [--state-dir] when given (created if missing, kept afterwards),
   else a temporary directory. *)
let state_root ~prefix = function
  | Some d ->
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d
  | None -> temp_dir prefix

let chaos_cmd =
  let run () seed scale n corrupt truncate drop duplicate delay server_error syncs
      fail_closed limit crash_points crash_rate torn_write_rate state_dir =
    let fault_config =
      { Fault.default with
        Fault.corrupt_rate = corrupt;
        truncate_rate = truncate;
        drop_rate = drop;
        duplicate_rate = duplicate;
        delay_rate = delay;
        server_error_rate = server_error;
        crash_rate;
        torn_write_rate;
      }
    in
    (* Refuse nonsense before the (slow) workload generation. *)
    (match Fault.validate fault_config with
    | () -> ()
    | exception Invalid_argument m -> exit_err "%s" m);
    if syncs < 1 then exit_err "--syncs must be at least 1";
    if crash_points < 0 then exit_err "--crash-points must not be negative";
    let soak () =
      (* Fault-free baseline: workload, signatures, whole-trace detection. *)
      let ds = Workload.generate ~seed ~scale () in
      let records = Array.to_list ds.Workload.records in
      let suspicious, normal = split_records ds.Workload.records in
      if Array.length suspicious = 0 then exit_err "trace has no sensitive packets";
      let baseline =
        Pipeline.run ~rng:(Prng.create seed) ~n ~suspicious ~normal ()
      in
      let base_detector = Detector.create baseline.Pipeline.signatures in
      let base_detected =
        Detector.count_detected base_detector (Workload.packets ds)
      in
      let total = List.length records in
      Printf.printf "baseline: %d packets, %d signatures, %d detected (%.2f%%)\n" total
        (List.length baseline.Pipeline.signatures)
        base_detected
        (100. *. float_of_int base_detected /. float_of_int total);
      Format.printf "baseline metrics: %a@." Metrics.pp baseline.Pipeline.metrics;

      (* Ingest soak: every record rides the wire through the fault plan,
         then the lenient reader recovers what it can. *)
      let ingest_plan = Fault.create ~seed:(seed + 1) fault_config in
      let delivered = Fault.apply_stream ingest_plan records in
      let path = Filename.temp_file "leakdetect_chaos" ".trace" in
      let recovered, skips =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            List.iter
              (fun r ->
                output_string oc (Fault.corrupt_string ingest_plan (Trace.record_to_line r));
                output_char oc '\n')
              delivered;
            close_out oc;
            match Trace.load ~on_error:`Skip path with
            | Ok x -> x
            | Error e -> exit_err "lenient load still failed: %s" e)
      in
      let damaged =
        Fault.count ingest_plan Fault.Corrupt + Fault.count ingest_plan Fault.Truncate
      in
      let n_delivered = List.length delivered in
      let n_recovered = List.length recovered in
      Printf.printf
        "\ningest: %d sent, %d delivered, %d recovered, %d skipped (intact lower bound %d)\n"
        total n_delivered n_recovered skips.Trace.skipped (n_delivered - damaged);
      List.iter
        (fun (lineno, e) -> Printf.printf "  skipped line %d: %s\n" lineno e)
        skips.Trace.sample;
      if n_recovered < n_delivered - damaged then
        exit_err "recovered %d < intact lower bound %d" n_recovered (n_delivered - damaged);

      (* Signature-sync soak: a single-tenant authority, journaled under
         <state>/history, publishes growing signature sets while the delta
         client syncs over a faulty transport. *)
      let state_root = state_root ~prefix:"leakdetect_state" state_dir in
      let history_dir = Filename.concat state_root "history" in
      if Sys.file_exists history_dir then rm_rf history_dir;
      let reopen dir what =
        match Authority.open_ ~dir () with
        | Ok x -> x
        | Error e -> exit_err "%s: %s" what e
      in
      let tenant = "chaos" in
      let authority, _report = reopen history_dir "cannot open journal" in
      let serialize sigs = String.concat "\n" (List.map Signature_io.to_line sigs) in
      (* What a committed state is: the tenant's version, checksum and
         serialized set. *)
      let witness a =
        ( Authority.version a ~tenant,
          Authority.checksum a ~tenant,
          serialize (Authority.signatures a ~tenant) )
      in
      (* Committed history: the witness after every journaled change,
         keyed by the journal size at which it became durable.  Every
         Add/Retire is a committed state, so a checkpoint precedes each
         change of a publish; offset 0 covers crash points inside the log
         header itself. *)
      let initial = (0, witness authority) in
      let history = ref [ initial ] in
      let checkpoint () =
        let size = Authority.wal_size authority in
        if fst (List.hd !history) <> size then
          history := (size, witness authority) :: !history
      in
      let all_signatures = Array.of_list baseline.Pipeline.signatures in
      let n_sigs = Array.length all_signatures in
      let client = Delta_client.create ~seed:(seed + 2) ~tenant () in
      let sync_plan = Fault.create ~seed:(seed + 3) fault_config in
      let delayed_ticks = ref 0 in
      let transport raw =
        let through raw =
          match
            Authority.wire_transport authority (Fault.corrupt_string sync_plan raw)
          with
          | Ok response -> Ok (Fault.corrupt_string sync_plan response)
          | Error _ as e -> e
        in
        match Fault.server_fate sync_plan with
        | Fault.Fail status -> Error (Printf.sprintf "transient server error %d" status)
        | Fault.Respond_delayed t ->
          delayed_ticks := !delayed_ticks + t;
          through raw
        | Fault.Respond -> through raw
      in
      let total_attempts = ref 0 and total_waited = ref 0 and failed_syncs = ref 0 in
      let sync () =
        let r = Delta_client.sync client ~transport in
        total_attempts := !total_attempts + r.Signature_client.attempts;
        total_waited := !total_waited + r.Signature_client.waited;
        match r.Signature_client.outcome with
        | Signature_client.Failed _ -> incr failed_syncs
        | _ -> ()
      in
      let head () = Authority.version authority ~tenant in
      Printf.printf "\nsync: %d rounds against %d signatures\n" syncs n_sigs;
      for round = 1 to syncs do
        let upto = if n_sigs = 0 then 0 else max 1 (n_sigs * round / syncs) in
        ignore
          (Authority.publish authority
             ~inject:(fun _ -> checkpoint ())
             ~tenant
             (Array.to_list (Array.sub all_signatures 0 upto)));
        checkpoint ();
        sync ()
      done;
      (* Catch-up: keep syncing until the client holds the latest version. *)
      let extra = ref 0 in
      while Delta_client.version client < head () && !extra < 50 do
        incr extra;
        sync ()
      done;
      let st = Delta_client.staleness client in
      Printf.printf
        "sync done: client v%d / authority v%d after %d extra syncs; %d attempts, %d failed syncs, %d backoff + %d delay ticks, health %s\n"
        (Delta_client.version client) (head ()) !extra !total_attempts !failed_syncs
        !total_waited !delayed_ticks
        (Signature_client.health_to_string (Delta_client.health client));
      Printf.printf "staleness: %d failed syncs, %d failed attempts, version gap %d\n"
        st.Signature_client.failed_syncs st.Signature_client.failed_attempts
        st.Signature_client.version_gap;
      if Delta_client.version client <> head () then
        exit_err "client failed to converge to the latest signature version";

      (* Enforcement under the synced set: replay recovered packets through
         the monitor with the client's health driving the fail mode. *)
      let monitor =
        Flow_control.create
          ~fail_mode:(if fail_closed then Flow_control.Fail_closed else Flow_control.Fail_open)
          (Delta_client.signatures client)
      in
      Flow_control.set_health monitor (Delta_client.health client);
      let replay = List.filteri (fun i _ -> i < limit) recovered in
      List.iter
        (fun (r : Trace.record) ->
          ignore (Flow_control.process monitor ~app_id:r.Trace.app_id r.Trace.packet))
        replay;
      let allowed, blocked, prompted = Flow_control.stats monitor in
      Printf.printf
        "\nenforcement (%s, health %s): %d replayed, %d allowed, %d blocked, %d prompted\n"
        (Flow_control.fail_mode_to_string (Flow_control.fail_mode monitor))
        (Signature_client.health_to_string (Flow_control.health monitor))
        (List.length replay) allowed blocked prompted;

      (* Detection delta: the synced signatures over the recovered records
         against the fault-free detection rate. *)
      let detector = Detector.create (Delta_client.signatures client) in
      let chaos_detected =
        Detector.count_detected detector
          (Array.of_list (List.map (fun r -> r.Trace.packet) recovered))
      in
      let rate detected count =
        if count = 0 then 0. else 100. *. float_of_int detected /. float_of_int count
      in
      let base_rate = rate base_detected total in
      let chaos_rate = rate chaos_detected n_recovered in
      Printf.printf
        "\ndetection: baseline %d/%d (%.2f%%) vs chaos %d/%d (%.2f%%), delta %+.2f points\n"
        base_detected total base_rate chaos_detected n_recovered chaos_rate
        (chaos_rate -. base_rate);

      (* Durability soak: restart the authority from its journal, then
         crash the journal at plan-chosen byte offsets (with torn-write
         damage on the committed image), recover each time, and check the
         recovered state against the committed history. *)
      let dur_plan = Fault.create ~seed:(seed + 4) fault_config in
      let final = witness authority in
      let boundaries = List.rev_map fst !history in
      Authority.close authority;
      let wal_image = slurp (Authority.wal_path ~dir:history_dir) in

      (* Uninterrupted recovery must restore the exact final state, and
         the synced device must be told (with a verified checksum) that
         its set is still current. *)
      let recovered_sigs =
        let authority', report = reopen history_dir "clean recovery failed" in
        if report.Authority.tail <> Wal.Clean then
          exit_err "clean log reported a torn tail: %s"
            (Authority.report_to_string report);
        if witness authority' <> final then
          exit_err "clean recovery diverged from the pre-restart state";
        (match
           (Delta_client.sync client ~transport:(Authority.wire_transport authority'))
             .Signature_client.outcome
         with
        | Signature_client.Unchanged -> ()
        | _ -> exit_err "recovered authority did not confirm the synced set");
        let sigs = Authority.signatures authority' ~tenant in
        Authority.close authority';
        sigs
      in
      let recovered_detected =
        Detector.count_detected (Detector.create recovered_sigs) (Workload.packets ds)
      in
      Printf.printf
        "\ndurability: %d committed checkpoints (%d journal bytes); clean recovery detects %d/%d (baseline %d)\n"
        (List.length !history - 1)
        (String.length wal_image) recovered_detected total base_detected;
      if recovered_detected <> base_detected then
        exit_err "post-recovery detection diverged from the fault-free baseline";

      (* Crash-point loop: every trial must recover to a committed state —
         the exact pre-crash one unless torn-write damage forced an earlier
         truncation. *)
      let last_record_start =
        List.fold_left
          (fun acc b -> if b < String.length wal_image then max acc b else acc)
          0 boundaries
      in
      let exact = ref 0 and earlier = ref 0 in
      for trial = 1 to crash_points do
        let torn_before = Fault.count dur_plan Fault.Torn_write in
        let damaged =
          Fault.torn_write dur_plan ~protect:(String.length Wal.magic)
            ~tail_start:last_record_start wal_image
        in
        let torn_fired = Fault.count dur_plan Fault.Torn_write > torn_before in
        let cut =
          match Fault.crash_point dur_plan ~len:(String.length damaged) with
          | Some off -> off
          | None -> String.length damaged
        in
        let damaged = String.sub damaged 0 cut in
        let crash_dir = Filename.concat state_root (Printf.sprintf "crash%d" trial) in
        if Sys.file_exists crash_dir then rm_rf crash_dir;
        Sys.mkdir crash_dir 0o755;
        spit (Authority.wal_path ~dir:crash_dir) damaged;
        let authority', _report =
          reopen crash_dir (Printf.sprintf "trial %d: recovery failed" trial)
        in
        let recovered = witness authority' in
        Authority.close authority';
        (* The newest state committed at or before the cut. *)
        let expected =
          snd
            (List.fold_left
               (fun (best, w) (off, w') ->
                 if off <= cut && off > best then (off, w') else (best, w))
               initial !history)
        in
        if (not torn_fired) && recovered <> expected then
          exit_err "trial %d: crash at byte %d did not restore the committed state"
            trial cut;
        if recovered = expected then incr exact
        else if List.exists (fun (_, w) -> w = recovered) !history then incr earlier
        else
          exit_err "trial %d: recovery produced a state that was never committed"
            trial;
        rm_rf crash_dir
      done;
      Printf.printf
        "durability: %d crash trials — %d exact pre-crash restores, %d truncated to an earlier committed state\n"
        crash_points !exact !earlier;

      (* Compaction: snapshot + journal reset must preserve the state. *)
      let authority', _ = reopen history_dir "reopen for compaction failed" in
      Authority.compact authority';
      Authority.close authority';
      let authority'', report = reopen history_dir "post-compaction recovery failed" in
      if witness authority'' <> final then
        exit_err "compaction changed the recovered state";
      Printf.printf "durability: compaction ok (%s)\n"
        (Authority.report_to_string report);
      Authority.close authority'';

      Printf.printf "\nfaults injected:\n";
      List.iter
        (fun (plan_name, plan) ->
          Printf.printf "  %-7s" (plan_name ^ ":");
          List.iter
            (fun (k, c) -> Printf.printf " %s=%d" (Fault.kind_name k) c)
            (Fault.summary plan);
          print_newline ())
        [ ("ingest", ingest_plan); ("sync", sync_plan); ("store", dur_plan) ]
    in
    match soak () with
    | () -> Printf.printf "uncaught exceptions: 0\n"
    | exception e -> exit_err "uncaught exception: %s" (Printexc.to_string e)
  in
  let rate ~names ~doc ~default =
    Arg.(value & opt float default & info names ~docv:"RATE" ~doc)
  in
  let corrupt = rate ~names:[ "corrupt-rate" ] ~doc:"Byte-corruption rate." ~default:0.1 in
  let truncate = rate ~names:[ "truncate-rate" ] ~doc:"Payload truncation rate." ~default:0.03 in
  let drop = rate ~names:[ "drop-rate" ] ~doc:"Record drop rate." ~default:0.03 in
  let duplicate = rate ~names:[ "duplicate-rate" ] ~doc:"Record duplication rate." ~default:0.03 in
  let delay = rate ~names:[ "delay-rate" ] ~doc:"Response delay rate." ~default:0.1 in
  let server_error =
    rate ~names:[ "server-error-rate" ] ~doc:"Transient server error rate." ~default:0.2
  in
  let syncs =
    Arg.(value & opt int 5
        & info [ "syncs" ] ~docv:"N" ~doc:"Publish/sync rounds in the signature soak.")
  in
  let fail_closed =
    Arg.(value & flag
        & info [ "fail-closed" ]
            ~doc:"Block everything while the signature feed is stale (default: fail-open).")
  in
  let limit =
    Arg.(value & opt int 5_000
        & info [ "limit" ] ~docv:"N" ~doc:"Recovered packets to replay through the monitor.")
  in
  let scale_small =
    Arg.(value & opt float 0.05
        & info [ "scale" ] ~docv:"SCALE" ~doc:"Traffic scale factor (soak default 0.05).")
  in
  let n_small =
    Arg.(value & opt int 150
        & info [ "n"; "sample" ] ~docv:"N" ~doc:"Suspicious packets sampled for signatures.")
  in
  let crash_points =
    Arg.(value & opt int 8
        & info [ "crash-points" ] ~docv:"N"
            ~doc:"Crash/recover trials in the durability soak.")
  in
  let crash_rate =
    rate ~names:[ "crash-rate" ]
      ~doc:"Probability a durability trial cuts the log at a crash point." ~default:0.75
  in
  let torn_write_rate =
    rate ~names:[ "torn-write-rate" ]
      ~doc:"Probability a durability trial damages committed log bytes." ~default:0.25
  in
  let state_dir =
    Arg.(value
        & opt (some string) None
        & info [ "state-dir" ] ~docv:"DIR"
            ~doc:
              "Durable state directory for the soak (kept afterwards; inspect with \
               $(b,leakdetect store)).  Default: a temporary directory, removed at exit.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "End-to-end fault-injection soak: generate a workload, ship it through a \
          faulty wire, sync signatures from a single-tenant authority through the \
          delta client, crash and recover the authority's journal, and report \
          recovery.")
    Term.(const run $ setup_log_t $ seed_t $ scale_small $ n_small $ corrupt $ truncate
          $ drop $ duplicate $ delay $ server_error $ syncs $ fail_closed $ limit
          $ crash_points $ crash_rate $ torn_write_rate $ state_dir)

(* --- store --- *)

let store_cmd =
  let run () dir compact =
    (* Inspect, never create: a mistyped path must not read as an empty
       store. *)
    let journal = Authority.wal_path ~dir in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      exit_err "%s: no such state directory" dir;
    if not (Sys.file_exists journal) then exit_err "%s: no journal at %s" dir journal;
    match Authority.open_ ~dir () with
    | Error e -> exit_err "cannot open %s: %s" dir e
    | Ok (authority, report) ->
      Printf.printf "state dir: %s\nrecovery:  %s\n" dir (Authority.report_to_string report);
      List.iter
        (fun tenant ->
          Printf.printf "tenant:    %s v%d, %d signature(s), checksum %s\n" tenant
            (Authority.version authority ~tenant)
            (List.length (Authority.signatures authority ~tenant))
            (Crc32.to_hex (Authority.checksum authority ~tenant)))
        (Authority.tenants authority);
      Printf.printf "journal:   %d byte(s) at %s\n" (Authority.wal_size authority) journal;
      if compact then begin
        Authority.compact authority;
        Printf.printf "compacted: snapshot written, journal reset to %d byte(s)\n"
          (Authority.wal_size authority)
      end;
      Authority.close authority
  in
  let dir =
    Arg.(required
        & opt (some string) None
        & info [ "state-dir" ] ~docv:"DIR" ~doc:"Durable state directory.")
  in
  let compact =
    Arg.(value & flag
        & info [ "compact" ]
            ~doc:"Fold the recovered state into an atomic snapshot and reset the journal.")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Recover a signature authority's state directory and report what was \
          salvaged; optionally compact the journal into a snapshot.")
    Term.(const run $ setup_log_t $ dir $ compact)

(* --- trace --- *)

(* Hand-rolled JSON writers for the --stats-json dump (no JSON dependency;
   the shapes are fixed, only strings need escaping). *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec span_json span =
  Printf.sprintf "{\"name\":\"%s\",\"start_ns\":%d,\"duration_ns\":%d,\"children\":[%s]}"
    (json_escape (Obs.Span.name span))
    (Obs.Span.start_ns span) (Obs.Span.duration_ns span)
    (String.concat "," (List.map span_json (Obs.Span.children span)))

let sample_json (s : Obs.sample) =
  let labels =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         s.Obs.labels)
  in
  let value =
    match s.Obs.value with
    | Obs.Counter_value v -> Printf.sprintf "\"type\":\"counter\",\"value\":%d" v
    | Obs.Gauge_value v -> Printf.sprintf "\"type\":\"gauge\",\"value\":%d" v
    | Obs.Histogram_value { buckets; sum; count } ->
      Printf.sprintf "\"type\":\"histogram\",\"sum\":%.17g,\"count\":%d,\"buckets\":[%s]"
        sum count
        (String.concat ","
           (List.map
              (fun (le, c) -> Printf.sprintf "{\"le\":%.17g,\"count\":%d}" le c)
              buckets))
  in
  Printf.sprintf "{\"family\":\"%s\",\"help\":\"%s\",\"labels\":{%s},%s}"
    (json_escape s.Obs.family) (json_escape s.Obs.help) labels value

let stats_json_string obs =
  Printf.sprintf "{\"spans\":[%s],\"metrics\":[%s]}\n"
    (String.concat "," (List.map span_json (Obs.root_spans obs)))
    (String.concat "," (List.map sample_json (Obs.samples obs)))

let trace_cmd =
  let run () seed scale trace n compressor linkage cut jobs limit syncs metrics_out
      stats_json normalize =
    let obs = Obs.create () in
    let normalize = normalize_of ~obs normalize in
    (* When generating the workload we also hold the ground-truth payload
       checker, so the payload_check family populates; a loaded trace file
       carries labels instead and skips that stage. *)
    let ds, records =
      match trace with
      | None ->
        let ds = Workload.generate ~seed ~scale () in
        (Some ds, ds.Workload.records)
      | Some _ -> (None, load_records ~trace ~seed ~scale)
    in
    (match ds with
    | Some ds ->
      ignore
        (Payload_check.split ~obs ds.Workload.payload_check
           (Array.map (fun r -> r.Trace.packet) records))
    | None -> ());
    let suspicious, normal = split_records records in
    if Array.length suspicious = 0 then exit_err "trace has no sensitive packets";
    let config =
      Pipeline.Config.with_normalize normalize
        (Pipeline.Config.with_obs obs (config_of ~compressor ~linkage ~cut ()))
    in
    let outcome =
      Pipeline.run
        ~config:(Pipeline.Config.with_jobs ~obs jobs config)
        ~rng:(Prng.create seed) ~n ~suspicious ~normal ()
    in
    let signatures = outcome.Pipeline.signatures in
    Printf.printf "pipeline: %d suspicious / %d normal packets -> %d signatures\n"
      (Array.length suspicious) (Array.length normal) (List.length signatures);

    (* Distribution: a journaled single-tenant authority publishes the set
       in growing chunks while an instrumented delta client follows, so the
       authority (journal included) and client families move too. *)
    let tenant = "trace" in
    let client = Delta_client.create ~obs ~seed:(seed + 1) ~tenant () in
    let state_dir = temp_dir "leakdetect_trace" in
    let authority, _report =
      match Authority.open_ ~obs ~dir:state_dir () with
      | Ok x -> x
      | Error e -> exit_err "cannot open journal %s: %s" state_dir e
    in
    let sync () =
      ignore (Delta_client.sync client ~transport:(Authority.wire_transport authority))
    in
    let all = Array.of_list signatures in
    let n_sigs = Array.length all in
    for round = 1 to syncs do
      let upto = if n_sigs = 0 then 0 else max 1 (n_sigs * round / syncs) in
      ignore (Authority.publish authority ~tenant (Array.to_list (Array.sub all 0 upto)));
      sync ()
    done;
    (* One sync against an unchanged authority, for the `unchanged` outcome. *)
    sync ();
    Authority.compact authority;
    Authority.close authority;
    Printf.printf "distribution: authority v%d, client v%d (%d publish/sync rounds)\n"
      (Authority.version authority ~tenant)
      (Delta_client.version client)
      syncs;

    (* Enforcement: replay through the monitor, then cross-check the O(1)
       stats against the event log and the obs counters. *)
    let monitor =
      Flow_control.create ~obs ?normalize (Delta_client.signatures client)
    in
    let replayed = min limit (Array.length records) in
    for i = 0 to replayed - 1 do
      let r = records.(i) in
      ignore (Flow_control.process monitor ~app_id:r.Trace.app_id r.Trace.packet)
    done;
    (match Flow_control.reconcile monitor with
    | Ok () -> ()
    | Error e -> exit_err "monitor stats reconciliation failed: %s" e);
    let allowed, blocked, prompted = Flow_control.stats monitor in
    Printf.printf
      "enforcement: %d replayed, %d allowed, %d blocked, %d prompted (stats reconciled)\n"
      replayed allowed blocked prompted;

    (* Scrape through the authority's real /metrics endpoint. *)
    let response =
      Authority.handle authority
        (Request.make Request.GET Protocol.metrics_endpoint)
    in
    if response.Response.status <> 200 then
      exit_err "GET %s answered %d" Protocol.metrics_endpoint
        response.Response.status;
    let scrape = response.Response.body in
    (match metrics_out with
    | Some "-" -> print_string scrape
    | Some path ->
      spit path scrape;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length scrape)
    | None -> ());
    (match stats_json with
    | Some path ->
      spit path (stats_json_string obs);
      Printf.printf "wrote %s\n" path
    | None -> ());
    let families =
      List.length
        (List.sort_uniq compare (List.map (fun s -> s.Obs.family) (Obs.samples obs)))
    in
    Printf.printf "\nscrape: %d metric families\n\nspans:\n" families;
    List.iter (fun span -> print_string (Obs.Span.render span)) (Obs.root_spans obs)
  in
  let scale_small =
    Arg.(value & opt float 0.05
        & info [ "scale" ] ~docv:"SCALE" ~doc:"Traffic scale factor (trace default 0.05).")
  in
  let n_small =
    Arg.(value & opt int 150
        & info [ "n"; "sample" ] ~docv:"N" ~doc:"Suspicious packets sampled for signatures.")
  in
  let limit =
    Arg.(value & opt int 5_000
        & info [ "limit" ] ~docv:"N" ~doc:"Packets to replay through the monitor.")
  in
  let syncs =
    Arg.(value & opt int 3
        & info [ "syncs" ] ~docv:"N" ~doc:"Publish/sync rounds against the signature authority.")
  in
  let metrics_out =
    Arg.(value
        & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Write the Prometheus text scrape (served by the in-process \
               $(b,GET /metrics) endpoint) to FILE; $(b,-) prints it to stdout.")
  in
  let stats_json =
    Arg.(value
        & opt (some string) None
        & info [ "stats-json" ] ~docv:"FILE"
            ~doc:"Write the span tree and every metric sample as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the full pipeline (generation, distribution, enforcement, durable \
          store) with an active metrics registry, print the span tree, and scrape \
          the /metrics endpoint.")
    Term.(const run $ setup_log_t $ seed_t $ scale_small $ trace_t $ n_small
          $ compressor_t $ linkage_t $ cut_t $ jobs_t $ limit $ syncs $ metrics_out
          $ stats_json $ normalize_t)

(* --- evade --- *)

let evade_cmd =
  let run () seed scale rates mutators depth sample_n json_out recall_floor metrics_out
      =
    let mutators =
      match mutators with
      | [] -> Mutator.all
      | names ->
        List.map
          (fun name ->
            match Mutator.by_name name with
            | Some m -> m
            | None ->
              exit_err "unknown mutator %S (known: %s)" name
                (String.concat ", " (Mutator.names ())))
          names
    in
    if rates = [] then exit_err "need at least one --rates value";
    List.iter
      (fun r -> if r < 0.0 || r > 1.0 then exit_err "rate %g outside [0, 1]" r)
      rates;
    let obs = if metrics_out = None then Obs.noop else Obs.create () in
    let budgets = { Normalize.default_budgets with Normalize.max_depth = depth } in
    let report = Harness.run ~obs ~budgets ~mutators ~rates ~seed ~scale ~sample_n () in
    print_string (Harness.render report);
    (match json_out with
    | Some "-" -> print_endline (Json.to_string_pretty (Harness.to_json report))
    | Some path ->
      spit path (Json.to_string_pretty (Harness.to_json report));
      Printf.printf "wrote %s\n" path
    | None -> ());
    (match metrics_out with
    | Some "-" -> print_string (Obs.to_prometheus obs)
    | Some path ->
      spit path (Obs.to_prometheus obs);
      Printf.printf "wrote %s\n" path
    | None -> ());
    match recall_floor with
    | Some floor when Harness.floor_recall report < floor ->
      exit_err "recall floor violated: %.3f < %.3f over decodable mutations"
        (Harness.floor_recall report) floor
    | _ -> ()
  in
  let scale_small =
    Arg.(value & opt float 0.05
        & info [ "scale" ] ~docv:"SCALE" ~doc:"Traffic scale factor (evade default 0.05).")
  in
  let rates =
    Arg.(value
        & opt (list float) [ 0.5; 1.0 ]
        & info [ "rates" ] ~docv:"R1,R2,..."
            ~doc:"Mutation rates: fraction of leak packets rewritten per cell.")
  in
  let mutators =
    Arg.(value
        & opt (list string) []
        & info [ "mutators" ] ~docv:"NAME,..."
            ~doc:"Mutators to replay (default: the full catalogue).")
  in
  let depth =
    Arg.(value & opt int Normalize.default_budgets.Normalize.max_depth
        & info [ "depth" ] ~docv:"N" ~doc:"Lattice decode-depth budget.")
  in
  let sample_n =
    Arg.(value & opt int 300
        & info [ "sample" ] ~docv:"N"
            ~doc:"Suspicious packets sampled for signature generation.")
  in
  let json_out =
    Arg.(value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the full report as JSON to FILE; $(b,-) prints to stdout.")
  in
  let recall_floor =
    Arg.(value
        & opt (some float) None
        & info [ "recall-floor" ] ~docv:"R"
            ~doc:
              "Exit non-zero unless every single-layer decodable mutation keeps \
               normalized recall >= R.")
  in
  let metrics_out =
    Arg.(value
        & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Run with an active metrics registry and write the Prometheus scrape \
               to FILE; $(b,-) prints to stdout.")
  in
  Cmd.v
    (Cmd.info "evade"
       ~doc:
         "Replay ground-truth leaks through the evasion-mutator catalogue and \
          report per-mutator recall with and without canonicalization.")
    Term.(const run $ setup_log_t $ seed_t $ scale_small $ rates $ mutators $ depth
          $ sample_n $ json_out $ recall_floor $ metrics_out)

let soak_cmd =
  let run () seed clients tenants ticks sync_period publishes compact_every k
      reporter_cap candidates byzantine drop corrupt server_error
      server_crash_rate client_restart_rate drain_rounds min_delta_ratio
      origins standby_origins relays byzantine_relays byzantine_corrupt
      relay_sync_period partitions partition_ticks relay_crashes epoch_flips
      gossip_period fork_injections origin_weight min_offload state_dir
      json_out metrics_out =
    let config =
      {
        Topology.default_config with
        Topology.origins;
        standby_origins;
        relays;
        byzantine_relays;
        byzantine_corrupt_rate = byzantine_corrupt;
        clients;
        tenants;
        ticks;
        sync_period;
        relay_sync_period;
        publishes;
        compact_every;
        k;
        reporter_cap;
        candidates;
        byzantine;
        fault =
          {
            Fault.default with
            Fault.drop_rate = drop;
            corrupt_rate = corrupt;
            server_error_rate = server_error;
          };
        partitions;
        partition_ticks;
        relay_crashes;
        epoch_flips;
        origin_crash_rate = server_crash_rate;
        client_restart_rate;
        min_offload;
        drain_rounds;
        gossip_period;
        fork_injections;
        origin_weight;
        seed;
      }
    in
    let obs = if metrics_out <> None then Obs.create () else Obs.noop in
    let report =
      let dir = Filename.concat (state_root ~prefix:"leakdetect_soak" state_dir) "topology" in
      if Sys.file_exists dir then rm_rf dir;
      match Topology.run ~obs ~dir config with
      | report -> report
      | exception Invalid_argument m -> exit_err "%s" m
    in
    print_endline (Topology.summary report);
    (match json_out with
    | None -> ()
    | Some "-" ->
      print_endline (Json.to_string_pretty (Topology.report_to_json report))
    | Some path ->
      spit path (Json.to_string_pretty (Topology.report_to_json report));
      Printf.printf "soak report written to %s\n" path);
    (match metrics_out with
    | None -> ()
    | Some "-" -> print_string (Obs.to_prometheus obs)
    | Some path ->
      spit path (Obs.to_prometheus obs);
      Printf.printf "metrics written to %s\n" path);
    if not (Topology.ok report) then
      exit_err "soak failed: invariant violation or offload floor";
    if report.Topology.steady_delta_ratio < min_delta_ratio then
      exit_err "steady-state delta ratio %.1f below floor %.1f"
        report.Topology.steady_delta_ratio min_delta_ratio
  in
  let flag_int name v doc =
    Arg.(value & opt int v & info [ name ] ~docv:"N" ~doc)
  in
  let flag_rate name v doc =
    Arg.(value & opt float v & info [ name ] ~docv:"RATE" ~doc)
  in
  let clients = flag_int "clients" 500 "Simulated delta-sync clients." in
  let tenants = flag_int "tenants" 2 "Tenants (clients assigned round-robin)." in
  let ticks = flag_int "ticks" 2000 "Scheduler ticks (ramp is the first third)." in
  let sync_period = flag_int "sync-period" 20 "Ticks between one client's syncs." in
  let publishes =
    flag_int "publishes" 40
      "Signature-set publishes, spread over the first nine tenths of the ticks."
  in
  let compact_every =
    flag_int "compact-every" 5 "Compact the changelog every N publishes (0 = never)."
  in
  let k = flag_int "k" 3 "Distinct reporters required to promote a candidate." in
  let reporter_cap =
    flag_int "reporter-cap" 16 "Pending candidates one reporter may be party to."
  in
  let candidates = flag_int "candidates" 6 "Honest candidate signatures per tenant." in
  let byzantine = flag_int "byzantine" 2 "Hostile reporters flooding candidates." in
  let drop = flag_rate "drop" 0.10 "Transport record-drop rate." in
  let corrupt = flag_rate "corrupt" 0.10 "Transport byte-corruption rate." in
  let server_error = flag_rate "server-error" 0.2 "Transient server-error rate." in
  let server_crash_rate =
    flag_rate "server-crash-rate" 0.25
      "Crash-point probability per publish / compaction."
  in
  let client_restart_rate =
    flag_rate "client-restart-rate" 0.01 "Per-sync client state-loss probability."
  in
  let drain_rounds =
    flag_int "drain-rounds" 40 "Extra sync rounds for stragglers after the run."
  in
  let min_delta_ratio =
    Arg.(value
        & opt float 5.0
        & info [ "min-delta-ratio" ] ~docv:"R"
            ~doc:
              "Exit non-zero unless steady-state delta syncs outnumber full \
               downloads by at least R.")
  in
  let origins = flag_int "origins" 2 "Origins in the initial shard map." in
  let standby_origins =
    flag_int "standby-origins" 1
      "Standby origins joining the map at odd epoch flips."
  in
  let relays = flag_int "relays" 3 "Relay nodes between clients and origins." in
  let byzantine_relays =
    flag_int "byzantine-relays" 1 "Relays serving corrupted bytes."
  in
  let byzantine_corrupt =
    flag_rate "byzantine-corrupt" 0.5
      "Per-response corruption rate of a byzantine relay."
  in
  let relay_sync_period =
    flag_int "relay-sync-period" 4 "Ticks between relay upstream syncs."
  in
  let partitions =
    flag_int "partitions" 3 "Relay-from-origin partitions scheduled."
  in
  let partition_ticks =
    flag_int "partition-ticks" 150 "Duration of each partition."
  in
  let relay_crashes =
    flag_int "relay-crashes" 2 "Relay crashes (total state loss) scheduled."
  in
  let epoch_flips =
    flag_int "epoch-flips" 1 "Mid-soak shard-map advances migrating tenants."
  in
  let gossip_period =
    flag_int "gossip-period" 8
      "Ticks between relay gossip rounds, 0 to disable."
  in
  let fork_injections =
    flag_int "fork-injections" 2
      "Adversarial relay-mirror forks injected mid-soak."
  in
  let origin_weight =
    flag_int "origin-weight" 1
      "Shard-map capacity weight of origin 0; 1 keeps the map unweighted."
  in
  let min_offload =
    flag_rate "min-offload" 0.8
      "Exit non-zero unless relays absorb at least this share of client sync \
       requests (ignored with no relays)."
  in
  let state_dir =
    Arg.(value
        & opt (some string) None
        & info [ "state-dir" ] ~docv:"DIR"
            ~doc:
              "Directory for the origin journals/snapshots (default: a \
               temporary directory, removed afterwards).")
  in
  let json_out =
    Arg.(value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the soak report as JSON to FILE; $(b,-) prints to stdout.")
  in
  let metrics_out =
    Arg.(value
        & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Run with an active metrics registry and write the Prometheus \
               scrape to FILE; $(b,-) prints to stdout.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Drive hundreds of simulated clients against journaled multi-tenant \
          signature origins, optionally behind a relay tier, through faulty \
          transports with crash points, and check the convergence invariants. \
          $(b,--origins 1 --standby-origins 0 --relays 0) with no relay \
          hostilities is the single-origin soak.")
    Term.(const run $ setup_log_t $ seed_t $ clients $ tenants $ ticks
          $ sync_period $ publishes $ compact_every $ k $ reporter_cap
          $ candidates $ byzantine $ drop $ corrupt $ server_error
          $ server_crash_rate $ client_restart_rate $ drain_rounds
          $ min_delta_ratio $ origins $ standby_origins $ relays
          $ byzantine_relays $ byzantine_corrupt $ relay_sync_period
          $ partitions $ partition_ticks $ relay_crashes $ epoch_flips
          $ gossip_period $ fork_injections $ origin_weight
          $ min_offload $ state_dir $ json_out $ metrics_out)

let main_cmd =
  let doc = "signature generation for sensitive information leakage (ICDE 2013 reproduction)" in
  Cmd.group
    (Cmd.info "leakdetect" ~version:"1.0.0" ~doc)
    [ generate_cmd; stats_cmd; cluster_cmd; sign_cmd; detect_cmd; evaluate_cmd;
      monitor_cmd; chaos_cmd; store_cmd; trace_cmd; evade_cmd; soak_cmd ]

let () = exit (Cmd.eval main_cmd)
