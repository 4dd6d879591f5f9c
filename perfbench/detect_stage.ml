(* Detection from wire bytes: every packet of the trace rendered as an
   HTTP/1.1 request (some bodies chunked, a seed-chosen share of the leaks
   re-encoded by a decodable mutator), then Wire.parse -> Packet.make ->
   Detector, once with normalize off and once with it on. *)

module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Packet = Leakdetect_http.Packet
module Request = Leakdetect_http.Request
module Headers = Leakdetect_http.Headers
module Wire = Leakdetect_http.Wire
module Trace = Leakdetect_http.Trace
module Detector = Leakdetect_core.Detector
module Signature = Leakdetect_core.Signature
module Normalize = Leakdetect_normalize.Normalize
module Mutator = Leakdetect_adversary.Mutator
module Aho_corasick = Leakdetect_text.Aho_corasick

type item = { packet : Packet.t; raw : string; leak : bool }

(* RFC 7230 chunked framing with an irregular chunk width. *)
let chunk_encode s =
  let buf = Buffer.create (String.length s + 64) in
  let off = ref 0 and w = ref 5 in
  while !off < String.length s do
    let l = min !w (String.length s - !off) in
    Buffer.add_string buf (Printf.sprintf "%x\r\n" l);
    Buffer.add_substring buf s !off l;
    Buffer.add_string buf "\r\n";
    off := !off + l;
    w := 1 + (!w * 3 mod 11)
  done;
  Buffer.add_string buf "0\r\n\r\n";
  Buffer.contents buf

let render ~chunked (p : Packet.t) =
  let c = p.content in
  match String.split_on_char ' ' c.Packet.request_line with
  | [ meth; target; version ] ->
      let meth =
        match Request.meth_of_string meth with
        | Some m -> m
        | None -> invalid_arg ("render: method " ^ meth)
      in
      let headers =
        List.concat
          [ [ ("Host", p.dst.Packet.host); ("User-Agent", "Dalvik/2.1.0 (Linux; U; Android 4.1)") ];
            (if c.Packet.cookie = "" then [] else [ ("Cookie", c.Packet.cookie) ]);
            (if chunked then [ ("Transfer-Encoding", "chunked") ] else []) ]
      in
      let body = if chunked then chunk_encode c.Packet.body else c.Packet.body in
      Wire.print (Request.make ~version ~headers:(Headers.of_list headers) ~body meth target)
  | _ -> invalid_arg ("render: request line " ^ c.Packet.request_line)

let decodable = List.filter (fun m -> m.Mutator.class_ = Mutator.Decodable) Mutator.all |> Array.of_list

(* The trace in record order; [mutated_share] of the leak packets (chosen
   by the seed) re-encoded, each by one seed-chosen decodable mutator. *)
let prepare (w : Spec.workload) ~seed (records : Trace.record array) =
  let rng = Prng.create (Hashtbl.hash ("detect", seed)) in
  let leaks =
    Array.of_list
      (List.filter (fun i -> records.(i).Trace.labels <> []) (List.init (Array.length records) Fun.id))
  in
  let k = int_of_float (Float.round (w.mutated_share *. float_of_int (Array.length leaks))) in
  let mutated = Hashtbl.create k in
  Array.iter (fun i -> Hashtbl.replace mutated i ()) (Sample.without_replacement rng k leaks);
  Array.mapi
    (fun i (r : Trace.record) ->
      let packet =
        if Hashtbl.mem mutated i then (Prng.pick rng decodable).Mutator.apply rng r.packet
        else r.packet
      in
      let chunked = packet.content.Packet.body <> "" && Prng.chance rng Spec.chunked_share in
      { packet; raw = render ~chunked packet; leak = r.labels <> [] })
    records

type mode = { normalize : Normalize.t option; verdicts : bool array }

(* One pass over the trace: wire bytes to verdict for every packet.
   [on_packet] receives each packet's CPU time in microseconds. *)
let pass ?(spans = false) ?on_packet det scratch mode items =
  let errors = ref 0 in
  let scan_name = if mode.normalize = None then "detector.scan" else "normalize.scan" in
  Array.iteri
    (fun i it ->
      let c0 = if on_packet = None then 0. else Span.cpu_s () in
      let parsed =
        if spans then
          Span.with_ "wire.parse" (fun () ->
              Result.map (fun request -> Packet.make ~dst:it.packet.dst ~request) (Wire.parse it.raw))
        else Result.map (fun request -> Packet.make ~dst:it.packet.dst ~request) (Wire.parse it.raw)
      in
      (match parsed with
      | Error _ ->
          incr errors;
          mode.verdicts.(i) <- false
      | Ok p ->
          let scan () = Detector.detects_with ?normalize:mode.normalize det scratch p in
          mode.verdicts.(i) <- (if spans then Span.with_ scan_name scan else scan ()));
      Option.iter (fun f -> f (1e6 *. Span.cpu_since c0)) on_packet)
    items;
  !errors

type setup = { items : item array; normalizer : Normalize.t }

let setup w ~seed records = { items = prepare w ~seed records; normalizer = Normalize.create () }

(* Reference verdicts on the in-memory packets, and the round-trip check
   that parsing every rendered request gives back the packet's content. *)
let reference det s =
  let n = Array.length s.items in
  let off = Array.make n false and on = Array.make n false in
  Array.iteri
    (fun i it ->
      off.(i) <- Detector.detects det it.packet;
      on.(i) <- Detector.detects ~normalize:s.normalizer det it.packet;
      let same =
        match Wire.parse it.raw with
        | Ok request -> (Packet.make ~dst:it.packet.dst ~request).content = it.packet.content
        | Error _ -> false
      in
      Tally.check same "detect: packet %d does not round-trip through Wire" i)
    s.items;
  (off, on)

let rate items seconds = float_of_int (Array.length items) /. seconds

(* Share of the normal packets flagged. *)
let fp_share s verdicts =
  let normal = ref 0 and flagged = ref 0 in
  Array.iteri
    (fun i it ->
      if not it.leak then begin
        incr normal;
        if verdicts.(i) then incr flagged
      end)
    s.items;
  float_of_int !flagged /. float_of_int (max 1 !normal)

(* Share of the leak packets a signature set flags with normalize on.
   Recall depends on which sample the signatures came from, so the run
   reports the median over the sets of several siggen repetitions. *)
let recall s signatures =
  let det = Detector.create signatures in
  let scratch = Detector.scratch det in
  let leaks = ref 0 and caught = ref 0 in
  Array.iter
    (fun it ->
      if it.leak then begin
        incr leaks;
        if Detector.detects_with ~normalize:s.normalizer det scratch it.packet then incr caught
      end)
    s.items;
  float_of_int !caught /. float_of_int (max 1 !leaks)

let count_pass s mode ref_verdicts errors =
  Tally.attempted := !Tally.attempted + Array.length s.items;
  Tally.failed := !Tally.failed + errors;
  Tally.check (mode.verdicts = ref_verdicts)
    "detect: streaming verdicts (normalize %s) differ from Detector.detects on the in-memory packets"
    (if mode.normalize = None then "off" else "on")

(* Pass pairs (normalize off, then on) accumulate here. *)
type acc = {
  det : Detector.t;
  scratch : Detector.scratch;
  ref_off : bool array;
  ref_on : bool array;
  off : mode;
  on : mode;
  off_rates : Stats.Sample.t;
  on_rates : Stats.Sample.t;
  mutable pairs : int;
}

let start s signatures =
  let det = Detector.create signatures in
  let ref_off, ref_on = reference det s in
  let n = Array.length s.items in
  { det; scratch = Detector.scratch det; ref_off; ref_on;
    off = { normalize = None; verdicts = Array.make n false };
    on = { normalize = Some s.normalizer; verdicts = Array.make n false };
    off_rates = Stats.Sample.create (); on_rates = Stats.Sample.create (); pairs = 0 }

let pass_pair s acc =
  let c0 = Span.cpu_s () in
  let errors = pass acc.det acc.scratch acc.off s.items in
  Stats.Sample.add acc.off_rates (rate s.items (Span.cpu_since c0));
  count_pass s acc.off acc.ref_off errors;
  let c0 = Span.cpu_s () in
  let errors = pass acc.det acc.scratch acc.on s.items in
  Stats.Sample.add acc.on_rates (rate s.items (Span.cpu_since c0));
  count_pass s acc.on acc.ref_on errors;
  acc.pairs <- acc.pairs + 1

(* detect_pps, detect_norm_pps and detect_norm_tn, all for the first
   repetition's signatures. *)
let result s acc =
  ( Stats.Sample.median acc.off_rates,
    Stats.Sample.median acc.on_rates,
    1. -. fp_share s acc.ref_on )

let trace s signatures =
  let det = Detector.create signatures in
  let scratch = Detector.scratch det in
  let ref_off, ref_on = reference det s in
  let n = Array.length s.items in
  let off = { normalize = None; verdicts = Array.make n false } in
  let on = { normalize = Some s.normalizer; verdicts = Array.make n false } in
  (* Untraced baseline: the median of three pass pairs like the traced
     one, without spans.  Every timed pair starts with no major GC cycle in flight. *)
  let untraced_s =
    Stats.median
      (Array.init 3 (fun _ ->
           Gc.major ();
           let t0 = Span.now_ns () in
           ignore (pass det scratch off s.items);
           ignore (pass det scratch on s.items);
           Span.seconds_since t0))
  in
  Gc.major ();
  Span.start ();
  let t0 = Span.now_ns () in
  let errors_off, errors_on =
    Span.with_ "stage.detect" (fun () ->
        let e_off =
          Span.with_ "stage.detect_off" (fun () ->
              pass ~spans:true det scratch off s.items)
        in
        let e_on =
          Span.with_ "stage.detect_on" (fun () ->
              pass ~spans:true det scratch on s.items)
        in
        (e_off, e_on))
  in
  let traced_s = Span.seconds_since t0 in
  Span.stop ();
  count_pass s off ref_off errors_off;
  count_pass s on ref_on errors_on;
  (* Per-packet CPU time with normalize on, from a pass of its own outside
     both timed windows.  Its p99 is set by the heaviest packets of the
     seed's trace, so it is reported here rather than as an end-to-end
     metric. *)
  let latencies = Stats.Sample.create () in
  ignore (pass det scratch on s.items ~on_packet:(Stats.Sample.add latencies));
  let latencies = Stats.Sample.to_array latencies in
  Tally.check (Stats.beyond 0.99 latencies >= 10) "detect: fewer than ten samples beyond p99";
  (* Lattice counts, outside every timed window. *)
  let views = ref 0 and budget_errors = ref 0 in
  Array.iter
    (fun it ->
      let l = Normalize.lattice s.normalizer (Packet.content_string it.packet) in
      views := !views + List.length l.Normalize.derived;
      budget_errors := !budget_errors + List.length l.Normalize.errors)
    s.items;
  let hits v = Array.fold_left (fun a b -> if b then a + 1 else a) 0 v in
  (* Aho-Corasick ladder over the packets' contents with the signature
     tokens, predicting the normalize-off detector scan. *)
  let tokens = List.sort_uniq compare (List.concat_map (fun s -> s.Signature.tokens) signatures) in
  let ac = Aho_corasick.build tokens in
  let flags = Array.make (Aho_corasick.pattern_count ac) false in
  let contents = Array.map (fun it -> Packet.content_string it.packet) s.items in
  let bytes = Array.fold_left (fun a c -> a + String.length c) 0 contents in
  let pass_s =
    Stats.median
      (Array.init 7 (fun _ ->
           let t0 = Span.now_ns () in
           Array.iter (Aho_corasick.matched_set_into ac flags) contents;
           Span.seconds_since t0))
  in
  let mib_s = float_of_int bytes /. 1048576. /. pass_s in
  let spans = Span.all () in
  let names = Span.by_name spans in
  let find name = Span.find name names in
  let wire = find "wire.parse" and scan = find "detector.scan" in
  let coverage = Span.coverage spans (Span.find_span "stage.detect" spans) in
  let per_packet (t : Span.totals) = 1e9 *. t.Span.total_s /. float_of_int (max 1 t.Span.calls) in
  [ ("detector.scan_s", scan.Span.total_s);
    ("detector.ns_per_packet", per_packet scan);
    ("detector.hits", float_of_int (hits ref_off));
    ("aho_corasick.mib_s", mib_s);
    ("aho_corasick.predicted_scan_s", pass_s);
    ("aho_corasick.prediction_err_pct", 100. *. (pass_s -. scan.Span.total_s) /. scan.Span.total_s);
    ("wire.parse_s", wire.Span.total_s);
    ("wire.ns_per_packet", per_packet wire);
    ("wire.bytes", float_of_int (Array.fold_left (fun a it -> a + String.length it.raw) 0 s.items));
    ("wire.errors", float_of_int (errors_off + errors_on));
    ("normalize.scan_s", (find "normalize.scan").Span.total_s);
    ("normalize.views_per_packet", float_of_int !views /. float_of_int (max 1 n));
    ("normalize.budget_errors", float_of_int !budget_errors);
    ("normalize.extra_hits", float_of_int (hits ref_on - hits ref_off));
    ("normalize.fp_rate", fp_share s ref_on);
    ("normalize.p99_us", Stats.percentile 0.99 latencies);
    ("trace.detect_coverage_pct", 100. *. coverage);
    ("trace.detect_overhead_pct", 100. *. (traced_s -. untraced_s) /. untraced_s) ]
