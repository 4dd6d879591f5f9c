(* Spans around the benchmark's calls into the libraries, recorded by a
   Leakdetect_obs registry while tracing is on and passed through the noop
   registry (one branch per call) otherwise; and the self-time and coverage
   arithmetic the trace report is built from.  A span's name is
   "layer.what". *)

module Obs = Leakdetect_obs.Obs

let now_ns = Obs.Clock.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Process CPU time (user + sys), microsecond resolution.  End-to-end
   timings use it: for this single-threaded work without blocking I/O it
   equals wall time on a dedicated machine, while on a shared VM it leaves
   out the time the hypervisor steals, which otherwise dominates the
   tails.  Spans stay on the wall clock. *)
let cpu_s = Sys.time
let cpu_since c0 = cpu_s () -. c0

let recorder = Obs.create ()
let current = ref Obs.noop
let start () = current := recorder
let stop () = current := Obs.noop
let reset () = Obs.reset_spans recorder
let with_ name f = Obs.with_span !current name f

(* A recorded span, numbered in start order, with the number of the span
   that was open when it started. *)
type t = { id : int; name : string; parent : int; start_ns : int; stop_ns : int }

let no_parent = -1

let all () =
  let out = ref [] and next = ref 0 in
  let rec visit parent s =
    let id = !next in
    incr next;
    let start_ns = Obs.Span.start_ns s in
    out :=
      { id; name = Obs.Span.name s; parent; start_ns; stop_ns = start_ns + Obs.Span.duration_ns s }
      :: !out;
    List.iter (visit id) (Obs.Span.children s)
  in
  List.iter (visit no_parent) (Obs.root_spans recorder);
  List.rev !out

let duration s = s.stop_ns - s.start_ns

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total + (cb - ca), (a, b)) else (total, (ca, max cb b)))
      (0, (lo, lo))
      sorted
  in
  total + (snd last - fst last)

(* Self time of every span: its duration minus the part of its interval
   its children cover.  Always within [0, duration]. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> no_parent then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

(* Per-layer and per-name totals, in seconds, and call counts. *)
type totals = { calls : int; total_s : float; self_s : float }

let aggregate key spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let k = key s in
      let t = Option.value ~default:{ calls = 0; total_s = 0.; self_s = 0. } (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k
        { calls = t.calls + 1;
          total_s = t.total_s +. (float_of_int (duration s) /. 1e9);
          self_s = t.self_s +. (float_of_int self /. 1e9) })
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let by_name spans = aggregate (fun s -> s.name) spans
let by_layer spans = aggregate layer spans

let find name totals =
  match List.assoc_opt name totals with
  | Some t -> t
  | None -> { calls = 0; total_s = 0.; self_s = 0. }

(* Share of the [root] span's time that layer spans cover: spans of the
   "stage" layer are the benchmark's own and count as uncovered. *)
let coverage spans root =
  let inside s = s.start_ns >= root.start_ns && s.stop_ns <= root.stop_ns in
  let harness_self =
    List.fold_left
      (fun acc (s, self) -> if layer s = "stage" && inside s then acc + self else acc)
      0 (self_times spans)
  in
  1. -. (float_of_int harness_self /. float_of_int (max 1 (duration root)))

let find_span name spans = List.find (fun s -> s.name = name) spans

(* One JSON array per span: [id, name, parent, start_ns, end_ns]. *)
let write path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s[%d,%S,%d,%d,%d]" (if i = 0 then "" else ",\n") s.id s.name s.parent
        s.start_ns s.stop_ns)
    spans;
  output_string oc "\n]\n";
  close_out oc
