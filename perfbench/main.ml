(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --spec          (prints BENCHMARK.json)

   One run of a workload, in one process with jobs=1: set-up (trace
   generation, wire rendering, a pre-populated durable authority with its
   relays and clients) three times, then three stages that share the
   measuring time -- signature generation, detection from wire bytes, and
   signature distribution.  Every stage checks its outputs.  With
   --trace 0 the last stdout line carries the end-to-end metrics; with
   --trace 1 the stages run once more under spans and the line carries
   the per-layer metrics, while the spans and a report go to .perfbench/.
   End-to-end timings are process CPU time (see Span.cpu_s).  Exits 1,
   printing no result, when a correctness check fails. *)

module Json = Leakdetect_util.Json
module Workload = Leakdetect_android.Workload
open Perfbench

let workdir = ".perfbench"

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 | --spec";
  exit 2

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (List.tl (Array.to_list Sys.argv))

let int_arg name =
  match Option.bind (arg name) int_of_string_opt with Some v -> v | None -> usage ()

type setup = {
  siggen : Siggen_stage.data;
  detect : Detect_stage.setup;
  distrib : Distrib_stage.state;
  generate_s : float;
}

let setup (w : Spec.workload) ~seed k =
  let c0 = Span.cpu_s () in
  let ds = Workload.generate ~seed ~scale:w.scale () in
  let generate_s = Span.cpu_since c0 in
  let suspicious, normal = Workload.split ds in
  { siggen = { Siggen_stage.suspicious; normal };
    detect = Detect_stage.setup w ~seed ds.Workload.records;
    distrib = Distrib_stage.setup w ~seed ~workdir k;
    generate_s }

(* Set up [times] times, keeping the last; returns it with the median
   set-up time. *)
let setup_repeatedly w ~seed times =
  let last = ref None in
  let durations =
    Array.init times (fun k ->
        Option.iter (fun s -> Distrib_stage.discard s.distrib) !last;
        last := None;
        let c0 = Span.cpu_s () in
        last := Some (setup w ~seed k);
        Span.cpu_since c0)
  in
  (Option.get !last, Stats.median durations)

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The three stages share the measuring time in units of work -- one
   siggen repetition, one detect pass pair, one distribution epoch --
   interleaved so every stage's samples spread over the whole run rather
   than one window of it.  The next unit goes to the stage furthest below
   its share of the time; detection waits for the first signatures.  The
   run ends once --seconds have passed and every stage has its minimum:
   two repetitions, two pass pairs, and enough publishes for ten samples
   beyond p99.  Recall is taken over the signature sets of the first
   [recall_sets] repetitions.  The peak heap is read once every stage has
   run one unit: the first three units always run siggen, detect, distrib
   in that order, so that peak depends on the seed alone, while the GC
   timing of later units depends on the clock. *)
let recall_sets = 7

let end_to_end (w : Spec.workload) ~seed ~seconds =
  let s, setup_s = setup_repeatedly w ~seed 3 in
  let g = Siggen_stage.start () in
  let d = ref None in
  let r = Distrib_stage.start () in
  let recalls = Stats.Sample.create () in
  let spent = Hashtbl.create 3 in
  (* Each unit first finishes the major GC cycle in flight, outside its
     timed window and its stage's share, so no stage pays to mark and
     sweep what another left.  Not Gc.full_major: on OCaml 5.1, a full
     major before every unit doubled the peak heap of a run and made
     peak_heap_mib unsteady across seeds. *)
  let run stage f =
    Gc.major ();
    let t0 = Span.now_ns () in
    f ();
    Hashtbl.replace spent stage
      (Span.seconds_since t0 +. Option.value ~default:0. (Hashtbl.find_opt spent stage))
  in
  let detect () =
    match !d with
    | Some acc -> acc
    | None ->
        let acc = Detect_stage.start s.detect (Option.get g.Siggen_stage.first) in
        d := Some acc;
        acc
  in
  let short = function
    | Spec.Siggen -> g.Siggen_stage.reps < 2
    | Spec.Detect -> (match !d with Some acc -> acc.Detect_stage.pairs < 2 | None -> true)
    | Spec.Distrib -> not (Distrib_stage.enough r)
  in
  let lag stage =
    Option.value ~default:0. (Hashtbl.find_opt spent stage) /. Spec.stage_share stage
  in
  let peak_heap = ref None in
  let start = Span.now_ns () in
  let rec loop () =
    let timed_out = Span.seconds_since start >= float_of_int seconds in
    let ready =
      List.filter
        (fun st -> (st <> Spec.Detect || g.Siggen_stage.reps > 0) && ((not timed_out) || short st))
        Spec.stages
    in
    match List.sort (fun a b -> compare (lag a) (lag b)) ready with
    | [] -> ()
    | stage :: _ ->
        run stage (fun () ->
            match stage with
            | Spec.Siggen ->
                let signatures = Siggen_stage.rep w ~seed s.siggen g in
                if Stats.Sample.length recalls < recall_sets then
                  Stats.Sample.add recalls (Detect_stage.recall s.detect signatures)
            | Spec.Detect -> Detect_stage.pass_pair s.detect (detect ())
            | Spec.Distrib -> Distrib_stage.epoch_unit s.distrib r);
        if !peak_heap = None && Hashtbl.length spent = List.length Spec.stages then
          peak_heap := Some (peak_heap_mib ());
        loop ()
  in
  loop ();
  let d = detect () in
  let siggen_s, tp, tn = Siggen_stage.result g in
  let pps, norm_pps, norm_tn = Detect_stage.result s.detect d in
  let pub50, pub99, sync50, sync99, replay = Distrib_stage.result s.distrib r in
  Printf.printf "siggen: %d reps; detect: %d pass pairs; distrib: %d epochs; measured %.1f s\n"
    g.reps d.pairs r.epochs (Span.seconds_since start);
  [ ("setup_s", setup_s);
    ("peak_heap_mib", Option.get !peak_heap);
    ("siggen_s", siggen_s);
    ("siggen_tp", tp);
    ("siggen_tn", tn);
    ("detect_pps", pps);
    ("detect_norm_pps", norm_pps);
    ("detect_norm_recall", Stats.Sample.median recalls);
    ("detect_norm_tn", norm_tn);
    ("publish_p50_ms", pub50);
    ("publish_p99_ms", pub99);
    ("sync_p50_us", sync50);
    ("sync_p99_us", sync99);
    ("replay_s", replay) ]

let flag_limit_pct = 25.

let per_layer (w : Spec.workload) ~seed ~envelope =
  let s, _ = setup_repeatedly w ~seed 1 in
  let g, signatures = Siggen_stage.trace w ~seed s.siggen in
  let d = Detect_stage.trace s.detect signatures in
  let r = Distrib_stage.trace s.distrib in
  let metrics = (("workload.generate_s", s.generate_s) :: g) @ d @ r in
  let spans = Span.all () in
  let prefix = Filename.concat workdir (Printf.sprintf "%s-seed%d" w.name seed) in
  Span.write (prefix ^ "-spans.json") spans;
  let flagged =
    List.filter
      (fun (name, v) ->
        Filename.extension name = ".prediction_err_pct" && Float.abs v > flag_limit_pct)
      metrics
  in
  let layers = Span.by_layer spans in
  (* Per stage: self time per layer inside the stage's root span, the
     layer coverage and the layer with the largest self time. *)
  let stages =
    List.map
      (fun stage ->
        let name = Spec.stage_name stage in
        let root = Span.find_span ("stage." ^ name) spans in
        let inside =
          List.filter (fun s -> s.Span.start_ns >= root.start_ns && s.stop_ns <= root.stop_ns) spans
        in
        let own = List.filter (fun (l, _) -> l <> "stage") (Span.by_layer inside) in
        let largest, _ =
          List.fold_left
            (fun (bl, bs) (l, (t : Span.totals)) -> if t.self_s > bs then (l, t.self_s) else (bl, bs))
            ("none", neg_infinity) own
        in
        Printf.printf "stage %s: layer spans cover %.1f%% of %.3f s; largest self time: %s\n" name
          (100. *. Span.coverage spans root) (float_of_int (Span.duration root) /. 1e9) largest;
        List.iter
          (fun (layer, (t : Span.totals)) ->
            Printf.printf "  %-14s %10.4f s self  %10.4f s total  %8d spans\n" layer t.self_s
              t.total_s t.calls)
          own;
        ( name,
          Json.Obj
            [ ("coverage_pct", Json.Float (100. *. Span.coverage spans root));
              ("largest_self_time", Json.String largest);
              ( "self_time_s",
                Json.Obj (List.map (fun (l, (t : Span.totals)) -> (l, Json.Float t.self_s)) own) ) ] ))
      Spec.stages
  in
  print_endline "per-layer metrics (value, moves):";
  List.iter
    (fun (l : Spec.layer_metric) ->
      Printf.printf "  %-34s %14.6g %-6s -> %s\n" l.l_name (List.assoc l.l_name metrics) l.l_unit
        l.moves)
    Spec.per_layer;
  List.iter
    (fun (name, v) ->
      Printf.printf "LADDER MISS: %s = %+.1f%% (limit %.0f%%)\n" name v flag_limit_pct)
    flagged;
  let report =
    Json.Obj
      [ ("envelope", envelope);
        ( "self_time_s",
          Json.Obj (List.map (fun (l, (t : Span.totals)) -> (l, Json.Float t.self_s)) layers) );
        ("stages", Json.Obj stages);
        ( "per_layer",
          Json.List
            (List.map
               (fun (l : Spec.layer_metric) ->
                 Json.Obj
                   [ ("name", Json.String l.l_name);
                     ("value", Json.Float (List.assoc l.l_name metrics));
                     ("unit", Json.String l.l_unit);
                     ("moves", Json.String l.moves) ])
               Spec.per_layer) );
        ("ladder_misses", Json.List (List.map (fun (n, _) -> Json.String n) flagged)) ]
  in
  let oc = open_out (prefix ^ "-trace.json") in
  output_string oc (Json.to_string_pretty report);
  output_char oc '\n';
  close_out oc;
  Printf.printf "spans and report: %s-spans.json, %s-trace.json\n" prefix prefix;
  metrics

let result metrics units =
  Json.Obj
    [ ("correct", Json.Bool true);
      ("attempted", Json.Int !Tally.attempted);
      ("failed", Json.Int !Tally.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit) ->
               (name, Json.Obj [ ("value", Json.Float (List.assoc name metrics)); ("unit", Json.String unit) ]))
             units) ) ]

let () =
  if Array.mem "--spec" Sys.argv then begin
    print_endline (Spec.benchmark_json ());
    exit 0
  end;
  let w =
    match Option.bind (arg "--workload") Spec.find_workload with Some w -> w | None -> usage ()
  in
  let seed = int_arg "--seed" and seconds = int_arg "--seconds" in
  let trace = match int_arg "--trace" with 0 -> false | 1 -> true | _ -> usage () in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let envelope = Envelope.make ~seed ~trace w in
  print_endline (Json.to_string envelope);
  let metrics, units =
    if trace then
      (per_layer w ~seed ~envelope, List.map (fun (l : Spec.layer_metric) -> (l.l_name, l.l_unit)) Spec.per_layer)
    else
      (end_to_end w ~seed ~seconds, List.map (fun (e : Spec.e2e) -> (e.e_name, e.e_unit)) Spec.e2e)
  in
  match !Tally.problems with
  | [] -> print_endline (Json.to_string (result metrics units))
  | problems ->
      List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) (List.rev problems);
      exit 1
