(* Signature distribution: a durable Authority holding S signatures, two
   Relays and a fleet of Delta_clients syncing through them.  Each step
   publishes one churn (one signature added, one retired, so the set stays
   at S), syncs one relay (in turn) and then a slice of the clients.  Every
   [epoch] steps the authority compacts, as an operator would, so
   per-operation costs do not drift with run length, and every other epoch
   ends with a close and a reopen whose journal replay is the same size
   every time. *)

module Prng = Leakdetect_util.Prng
module Signature = Leakdetect_core.Signature
module Authority = Leakdetect_distrib.Authority
module Relay = Leakdetect_distrib.Relay
module Delta_client = Leakdetect_distrib.Delta_client
module Changelog = Leakdetect_distrib.Changelog
module Signature_client = Leakdetect_monitor.Signature_client
module Wal = Leakdetect_store.Wal

let tenant = "bench"
let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
let token rng len = String.init len (fun _ -> alphabet.[Prng.int rng (String.length alphabet)])

let make_signature rng id =
  Signature.make ~id ~mode:Signature.Conjunction ~cluster_size:3
    [ "udid="; token rng 12; "imei=" ^ token rng 15 ]

let distrib_rng ~seed = Prng.create (Hashtbl.hash ("distrib", seed))

(* The S signatures the authority starts from, and the generator that
   keeps drawing churn signatures after them. *)
let initial_signatures_with rng (w : Spec.workload) = List.init w.signatures (make_signature rng)
let initial_signatures w ~seed = initial_signatures_with (distrib_rng ~seed) w

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type transport = string -> (string, string) result

(* Requests and bytes through a transport. *)
type traffic = { mutable requests : int; mutable bytes : int }

let counted traffic name (f : transport) : transport =
 fun raw ->
  traffic.requests <- traffic.requests + 1;
  let r = Span.with_ name (fun () -> f raw) in
  traffic.bytes <- traffic.bytes + String.length raw
                   + (match r with Ok s -> String.length s | Error _ -> 0);
  r

type state = {
  w : Spec.workload;
  dir : string;
  rng : Prng.t;
  mutable auth : Authority.t;
  relays : Relay.t array;
  clients : Delta_client.t array;
  to_origin_from_relays : traffic;
  to_origin_from_clients : traffic;
  to_relays : traffic;
  mutable origin_for_relays : transport;
  mutable origin_for_clients : transport;
  mutable relay_ports : transport list;
  mutable next_id : int;
  mutable cursor : int;
  mutable step : int;
}

let open_authority dir =
  let config = { Authority.default_config with Authority.compact_keep = Spec.keep } in
  match Authority.open_ ~config ~dir () with
  | Ok (a, report) -> (a, report)
  | Error e -> failwith ("distrib: open authority: " ^ e)

let synced (r : Signature_client.sync_report) =
  match r.Signature_client.outcome with
  | Signature_client.Updated _ | Signature_client.Unchanged -> true
  | Signature_client.Failed _ -> false

let connect st =
  let origin = Authority.wire_transport st.auth in
  st.origin_for_relays <- counted st.to_origin_from_relays "authority.serve" origin;
  st.origin_for_clients <- counted st.to_origin_from_clients "authority.serve" origin

(* A durable authority pre-populated with S signatures and compacted,
   relays synced, every client holding the set. *)
let setup (w : Spec.workload) ~seed ~workdir k =
  let dir = Filename.concat workdir (Printf.sprintf "distrib-%d-%d" (Unix.getpid ()) k) in
  rm_rf dir;
  let rng = distrib_rng ~seed in
  let auth, _ = open_authority dir in
  ignore (Authority.publish auth ~tenant (initial_signatures_with rng w));
  Authority.compact auth;
  let relay_config = { Relay.default_config with Relay.compact_keep = Spec.keep } in
  let traffic () = { requests = 0; bytes = 0 } in
  let nowhere _ = Error "unconnected" in
  let st =
    { w; dir; rng; auth;
      relays =
        Array.init Spec.relays (fun i ->
            Relay.create ~config:relay_config ~seed:(seed + i) ~id:(Printf.sprintf "relay%d" i)
              ~tenants:[ tenant ] ());
      clients = Array.init Spec.clients (fun i -> Delta_client.create ~seed:(seed + i) ~tenant ());
      to_origin_from_relays = traffic (); to_origin_from_clients = traffic ();
      to_relays = traffic ();
      origin_for_relays = nowhere; origin_for_clients = nowhere; relay_ports = [];
      next_id = w.signatures; cursor = 0; step = 0 }
  in
  connect st;
  st.relay_ports <-
    Array.to_list
      (Array.map (fun r -> counted st.to_relays "relay.serve" (Relay.wire_transport r)) st.relays);
  Array.iter
    (fun r ->
      Tally.check (synced (Relay.sync_tenant r ~tenant ~transport:st.origin_for_relays))
        "distrib: relay initial sync failed")
    st.relays;
  Array.iter
    (fun c ->
      Tally.check
        (synced (Delta_client.sync_via c ~relays:st.relay_ports ~origin:st.origin_for_clients))
        "distrib: client initial sync failed")
    st.clients;
  st

let discard st =
  Authority.close st.auth;
  rm_rf st.dir

type samples = { publish_ms : Stats.Sample.t; sync_us : Stats.Sample.t }

let step st samples =
  let current = Authority.signatures st.auth ~tenant in
  let victim = (List.nth current (Prng.int st.rng (List.length current))).Signature.id in
  let fresh = make_signature st.rng st.next_id in
  st.next_id <- st.next_id + 1;
  let desired = List.filter (fun s -> s.Signature.id <> victim) current @ [ fresh ] in
  let c0 = Span.cpu_s () in
  ignore (Span.with_ "authority.publish" (fun () -> Authority.publish st.auth ~tenant desired));
  Stats.Sample.add samples.publish_ms (1e3 *. Span.cpu_since c0);
  Tally.op true;
  let relay = st.relays.(st.step mod Array.length st.relays) in
  st.step <- st.step + 1;
  Tally.op
    (synced
       (Span.with_ "relay.sync" (fun () ->
            Relay.sync_tenant relay ~tenant ~transport:st.origin_for_relays)));
  for _ = 1 to Spec.slice do
    let c = st.clients.(st.cursor) in
    st.cursor <- (st.cursor + 1) mod Array.length st.clients;
    let c0 = Span.cpu_s () in
    let report =
      Span.with_ "delta_client.sync" (fun () ->
          Delta_client.sync_via c ~relays:st.relay_ports ~origin:st.origin_for_clients)
    in
    Stats.Sample.add samples.sync_us (1e6 *. Span.cpu_since c0);
    Tally.op (synced report)
  done

let epoch st samples =
  for _ = 1 to Spec.epoch do
    step st samples
  done

(* Every client's final (version, checksum) must equal the authority's. *)
let converge st =
  Array.iter
    (fun r -> Tally.op (synced (Relay.sync_tenant r ~tenant ~transport:st.origin_for_relays)))
    st.relays;
  let version = Authority.version st.auth ~tenant and sum = Authority.checksum st.auth ~tenant in
  Array.iteri
    (fun i c ->
      Tally.op (synced (Delta_client.sync_via c ~relays:st.relay_ports ~origin:st.origin_for_clients));
      Tally.check
        (Delta_client.version c = version && Delta_client.checksum c = sum)
        "distrib: client %d ends at v%d, authority at v%d" i (Delta_client.version c) version)
    st.clients

(* Close and reopen, replaying the journal; the reopened version and
   checksum must equal the ones before close.  Returns the replay time. *)
let reopen st =
  let version = Authority.version st.auth ~tenant and sum = Authority.checksum st.auth ~tenant in
  Authority.close st.auth;
  let c0 = Span.cpu_s () in
  let a, _ = open_authority st.dir in
  let s = Span.cpu_since c0 in
  Tally.check
    (Authority.version a ~tenant = version && Authority.checksum a ~tenant = sum)
    "distrib: reopened authority at v%d, closed at v%d" (Authority.version a ~tenant) version;
  st.auth <- a;
  connect st;
  s

(* Epochs accumulate here.  Every epoch but the first starts with a
   compaction; every other epoch ends with a close and a reopen that
   replays the epoch's journal, which holds the same number of entries
   every time. *)
type acc = { samples : samples; replays : Stats.Sample.t; mutable epochs : int }

let start () =
  { samples = { publish_ms = Stats.Sample.create (); sync_us = Stats.Sample.create () };
    replays = Stats.Sample.create (); epochs = 0 }

let min_publishes = 1100

let epoch_unit st acc =
  if acc.epochs > 0 then Authority.compact st.auth;
  epoch st acc.samples;
  if acc.epochs mod 2 = 0 then Stats.Sample.add acc.replays (reopen st);
  acc.epochs <- acc.epochs + 1

let enough acc = Stats.Sample.length acc.samples.publish_ms >= min_publishes

(* Converge the fleet, check it, and drop the authority's directory.
   Returns publish p50/p99 (ms), sync p50/p99 (us) and replay (s). *)
let result st acc =
  converge st;
  discard st;
  let pub = Stats.Sample.to_array acc.samples.publish_ms in
  let sync = Stats.Sample.to_array acc.samples.sync_us in
  Tally.check (Stats.beyond 0.99 pub >= 10 && Stats.beyond 0.99 sync >= 10)
    "distrib: fewer than ten samples beyond p99";
  ( Stats.median pub,
    Stats.percentile 0.99 pub,
    Stats.median sync,
    Stats.percentile 0.99 sync,
    Stats.median (Stats.Sample.to_array acc.replays) )

(* --- traced run and ladders ----------------------------------------------- *)

let sum_counters st =
  Array.fold_left
    (fun (d, s, e) c ->
      let k = Delta_client.counters c in
      (d + k.Delta_client.delta_updates, s + k.Delta_client.snapshot_updates, e + k.Delta_client.escalations))
    (0, 0, 0) st.clients

let mean_us (t : Span.totals) = 1e6 *. t.Span.total_s /. float_of_int (max 1 t.Span.calls)

let per_op_us n f =
  let t0 = Span.now_ns () in
  for i = 1 to n do
    f i
  done;
  float_of_int (Span.now_ns () - t0) /. 1e3 /. float_of_int n

(* Changelog and WAL microbenches at set size S. *)
let ladders st =
  let w = st.w in
  let rng = Prng.create (Hashtbl.hash ("ladder", w.signatures)) in
  let log = Changelog.create () in
  for id = 0 to w.signatures - 1 do
    ignore (Changelog.append log (Changelog.Add (make_signature rng id)))
  done;
  let k = 200 in
  let append_us =
    per_op_us k (fun i ->
        ignore
          (Changelog.append log
             (if i mod 2 = 1 then Changelog.Add (make_signature rng (w.signatures + i))
              else Changelog.Retire (i / 2))))
  in
  let lag = 2 * Spec.clients / Spec.slice in
  let head = Changelog.version log in
  let since_us = per_op_us k (fun _ -> ignore (Changelog.since log (head - min lag head))) in
  let checksum_us =
    per_op_us k (fun _ -> ignore (Changelog.wire_checksum ~version:head (Changelog.current log)))
  in
  let path = Filename.concat st.dir "ladder.wal" in
  let writer = Wal.create path in
  let record =
    Printf.sprintf "change\t%s\t%s" tenant
      (Changelog.entry_to_line { Changelog.version = head; change = Changelog.Add (make_signature rng head) })
  in
  let wal_us = per_op_us k (fun _ -> Wal.append writer record) in
  Wal.close writer;
  Sys.remove path;
  (append_us, since_us, checksum_us, wal_us)

let trace st =
  let samples = { publish_ms = Stats.Sample.create (); sync_us = Stats.Sample.create () } in
  (* Two epochs bring every client to its steady lag, so the untraced and
     the traced epoch do the same work. *)
  for _ = 1 to 2 do
    epoch st samples;
    Authority.compact st.auth
  done;
  Gc.major ();
  let t0 = Span.now_ns () in
  epoch st samples;
  let untraced_s = Span.seconds_since t0 in
  Authority.compact st.auth;
  let d0, s0, e0 = sum_counters st in
  let client_bytes0 = st.to_relays.bytes + st.to_origin_from_clients.bytes in
  let relay_reqs0 = st.to_relays.requests and origin_reqs0 = st.to_origin_from_clients.requests in
  let publishes0 = Stats.Sample.length samples.publish_ms in
  Gc.major ();
  Span.start ();
  let t0 = Span.now_ns () in
  Span.with_ "stage.distrib" (fun () -> epoch st samples);
  let traced_s = Span.seconds_since t0 in
  Span.stop ();
  let d1, s1, e1 = sum_counters st in
  let syncs = Spec.epoch * Spec.slice in
  let client_bytes = st.to_relays.bytes + st.to_origin_from_clients.bytes - client_bytes0 in
  let relay_reqs = st.to_relays.requests - relay_reqs0 in
  let origin_reqs = st.to_origin_from_clients.requests - origin_reqs0 in
  let changes = 2 * (Stats.Sample.length samples.publish_ms - publishes0) in
  let wal_bytes = Authority.wal_size st.auth in
  let append_us, since_us, checksum_us, wal_us = ladders st in
  converge st;
  let journal = Filename.concat st.dir "journal.log" in
  let version = Authority.version st.auth ~tenant in
  Authority.close st.auth;
  let t0 = Span.now_ns () in
  let read = Wal.read journal in
  let wal_read_s = Span.seconds_since t0 in
  Tally.check (Result.is_ok read) "distrib: journal unreadable";
  let a, _ = open_authority st.dir in
  Tally.check (Authority.version a ~tenant = version) "distrib: reopened authority lost versions";
  st.auth <- a;
  discard st;
  let spans = Span.all () in
  let names = Span.by_name spans in
  let find name = Span.find name names in
  let publish = find "authority.publish" and client = find "delta_client.sync" in
  let relays = Array.map Relay.counters st.relays in
  let relay_sum f = float_of_int (Array.fold_left (fun a c -> a + f c) 0 relays) in
  let predicted = float_of_int changes *. (append_us +. wal_us) /. 1e6 in
  let coverage = Span.coverage spans (Span.find_span "stage.distrib" spans) in
  [ ("authority.publish_s", publish.Span.total_s);
    ("authority.serve_us", mean_us (find "authority.serve"));
    ("authority.requests", float_of_int (find "authority.serve").Span.calls);
    ("authority.predicted_publish_s", predicted);
    ("authority.prediction_err_pct", 100. *. (predicted -. publish.Span.total_s) /. publish.Span.total_s);
    ("changelog.append_us", append_us);
    ("changelog.since_us", since_us);
    ("changelog.wire_checksum_us", checksum_us);
    ("wal.append_us", wal_us);
    ("wal.bytes", float_of_int wal_bytes);
    ("wal.read_s", wal_read_s);
    ("relay.sync_s", (find "relay.sync").Span.total_s);
    ("relay.serve_us", mean_us (find "relay.serve"));
    ("relay.offload", float_of_int relay_reqs /. float_of_int (max 1 (relay_reqs + origin_reqs)));
    ("relay.repairs", relay_sum (fun c -> c.Relay.repairs));
    ("relay.resnapshots", relay_sum (fun c -> c.Relay.resnapshots));
    ("delta_client.self_us", 1e6 *. client.Span.self_s /. float_of_int (max 1 client.Span.calls));
    ("delta_client.deltas", float_of_int (d1 - d0));
    ("delta_client.snapshots", float_of_int (s1 - s0));
    ("delta_client.escalations", float_of_int (e1 - e0));
    ("delta_client.bytes_per_sync", float_of_int client_bytes /. float_of_int syncs);
    ("trace.distrib_coverage_pct", 100. *. coverage);
    ("trace.distrib_overhead_pct", 100. *. (traced_s -. untraced_s) /. untraced_s) ]
