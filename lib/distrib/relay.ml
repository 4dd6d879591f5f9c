module Http = Leakdetect_http
module Crc32 = Leakdetect_util.Crc32
module Signature = Leakdetect_core.Signature
module Signature_client = Leakdetect_monitor.Signature_client
module Obs = Leakdetect_obs.Obs

type config = { compact_keep : int; digest_interval : int }

let default_config =
  { compact_keep = 64; digest_interval = Protocol.default_digest_interval }

type tenant_state = {
  dc : Delta_client.t;
  mutable mirror : Changelog.t;
  mutable synced : bool;
  mutable last_sync_tick : int;
  (* Canonical-set CRC of the verified client state, cached after every
     successful sync so the serve-time consistency guard is O(1). *)
  mutable verified_sum : int;
}

type counters = {
  sync_rounds : int;
  sync_failures : int;
  resnapshots : int;
  resnapshot_bytes : int;
  repairs : int;
  repair_bytes : int;
  gossip_rounds : int;
  gossip_catchups : int;
  served_delta : int;
  served_snapshot : int;
  served_not_modified : int;
  served_unready : int;
  served_inconsistent : int;
  served_digest : int;
  forwarded : int;
  forward_failures : int;
}

let zero =
  {
    sync_rounds = 0; sync_failures = 0; resnapshots = 0; resnapshot_bytes = 0;
    repairs = 0; repair_bytes = 0; gossip_rounds = 0; gossip_catchups = 0;
    served_delta = 0; served_snapshot = 0; served_not_modified = 0;
    served_unready = 0; served_inconsistent = 0; served_digest = 0;
    forwarded = 0; forward_failures = 0;
  }

type t = {
  id : string;
  config : config;
  obs : Obs.t;
  tenant_tbl : (string, tenant_state) Hashtbl.t;
  mutable upstream : (string -> (string, string) result) option;
  mutable peers : (string * (string -> (string, string) result)) list;
  mutable shard : Shard_map.t option;
  mutable clock : int;
  mutable counters : counters;
}

let count t f = t.counters <- f t.counters

let create ?(obs = Obs.noop) ?(config = default_config) ?client_config
    ?(seed = 0) ~id ~tenants () =
  if not (Protocol.id_ok id) then
    invalid_arg (Printf.sprintf "Relay: bad id %S" id);
  if config.digest_interval < 1 then
    invalid_arg "Relay: digest_interval < 1";
  let t =
    {
      id;
      config;
      obs;
      tenant_tbl = Hashtbl.create (max 4 (List.length tenants));
      upstream = None;
      peers = [];
      shard = None;
      clock = 0;
      counters = zero;
    }
  in
  List.iteri
    (fun i tenant ->
      (* Delta_client validates the tenant id; per-tenant seeds keep the
         relays' backoff jitter decorrelated from each other. *)
      let dc =
        Delta_client.create ?config:client_config
          ~seed:(seed + (i * 7919) + Crc32.string id)
          ~tenant ()
      in
      Hashtbl.replace t.tenant_tbl tenant
        {
          dc;
          mirror = Changelog.create ();
          synced = false;
          last_sync_tick = 0;
          verified_sum = Changelog.checksum_set [];
        })
    tenants;
  t

let id t = t.id

let tenants t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_tbl [])

let state t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Relay %s: unknown tenant %S" t.id tenant)

let version t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> Delta_client.version st.dc
  | None -> 0

let synced t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> st.synced
  | None -> false

let checksum t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> Changelog.current_checksum st.mirror
  | None -> Changelog.checksum_set []

let staleness t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> (Delta_client.staleness st.dc).Signature_client.failed_syncs
  | None -> 0

let set_upstream t transport = t.upstream <- Some transport
let set_peers t peers = t.peers <- List.filter (fun (pid, _) -> pid <> t.id) peers
let set_shard t map = t.shard <- Some map
let set_clock t now = t.clock <- now

let version_age t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> max 0 (t.clock - st.last_sync_tick)
  | None -> 0

(* The serve-time guard: the mirror head must sit exactly on the
   verified client state — same version, same canonical-set CRC (read
   from the mirror's cached sums table, so the check is O(1)).  A
   forked or corrupted mirror trips this immediately and the relay
   refuses to serve until repaired. *)
let consistent_st st =
  let head = Changelog.version st.mirror in
  head = Delta_client.version st.dc
  && Changelog.checksum_at st.mirror head = Some st.verified_sum

let consistent t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> st.synced && consistent_st st
  | None -> false

(* Digest probes and repair fetches identify as the relay. *)
let host = "sigrelay.local"

(* --- mirror maintenance: resnapshot, ranged repair, absorb --- *)

let resnapshot t st =
  (* Rebuild the mirror as a fold of the verified set: base at the
     verified head, no history.  Lagging clients get snapshots until the
     mirror regrows entries.  The canonical body length is recorded as
     the wire cost a full resync would have paid, so repair savings are
     directly comparable. *)
  let set = Delta_client.signatures st.dc in
  (match
     Changelog.restore
       ~base_version:(Delta_client.version st.dc)
       ~base:set ~next_id:0 ~entries:[]
   with
  | Ok log -> st.mirror <- log
  | Error e -> invalid_arg ("Relay: resnapshot failed: " ^ e));
  count t (fun c ->
      {
        c with
        resnapshots = c.resnapshots + 1;
        resnapshot_bytes =
          c.resnapshot_bytes + String.length (Protocol.signatures_body set);
      })

(* Ranged anti-entropy repair.  Fetch the checkpoint digest from
   [transport] (origin, or a sibling whose own serving guard vouches for
   its mirror), find the newest checkpoint our mirror agrees with,
   re-fetch only the suffix past it, and splice.  The splice is accepted
   only if the rebuilt mirror lands *exactly* on the locally verified
   client state (version and canonical CRC), so a byzantine repair
   source can waste our time but never poison the mirror. *)
let try_repair t st ~transport =
  let tenant = Delta_client.tenant st.dc in
  match
    Protocol.fetch_digest ~host transport ~tenant
      ~since:(Changelog.horizon st.mirror) ~interval:t.config.digest_interval
  with
  | Error _ -> false
  | Ok (draw, checkpoints) -> (
    let agree =
      List.fold_left
        (fun acc (v, sum) ->
          if Changelog.checksum_at st.mirror v = Some sum then Some v
          else acc)
        None checkpoints
    in
    match agree with
    | None -> false (* divergence below the horizon: resnapshot *)
    | Some split ->
      let splice fetched_raw fetched =
        (* Entries past the verified head are trimmed: the source
           may have advanced beyond what our client has verified,
           and the mirror must never outrun verification. *)
        let held = Delta_client.version st.dc in
        let fetched =
          List.filter
            (fun (e : Changelog.entry) -> e.Changelog.version <= held)
            fetched
        in
        let prefix =
          List.filter
            (fun (e : Changelog.entry) ->
              e.Changelog.version <= split && e.Changelog.version <= held)
            (Changelog.entries st.mirror)
        in
        match
          Changelog.restore
            ~base_version:(Changelog.horizon st.mirror)
            ~base:(Changelog.base st.mirror)
            ~next_id:0
            ~entries:(prefix @ fetched)
        with
        | Error _ -> false
        | Ok log ->
          if
            Changelog.version log = held
            && Changelog.current_checksum log = st.verified_sum
          then begin
            st.mirror <- log;
            Changelog.compact st.mirror ~keep:t.config.compact_keep;
            count t (fun c ->
                {
                  c with
                  repairs = c.repairs + 1;
                  repair_bytes =
                    c.repair_bytes + String.length draw
                    + String.length fetched_raw;
                });
            true
          end
          else false
      in
      if split >= Delta_client.version st.dc then
        (* The fork is entirely past the verified head (e.g. bogus
           entries appended to a current mirror): truncation alone
           repairs it, no suffix fetch needed. *)
        splice "" []
      else
        match
          Protocol.exchange ~host transport Http.Request.GET
            (Protocol.signatures_target ~tenant ~since:split ~full:false)
        with
        | Error _ -> false
        | Ok (sraw, sresp) -> (
          if
            sresp.Http.Response.status <> 200
            || Protocol.mode sresp <> Some "delta"
          then false
          else
            match
              Protocol.parse_body Protocol.entry_of_line sresp.Http.Response.body
            with
            | Error _ -> false
            | Ok fetched -> splice sraw fetched))

(* Repair first, rebuild as the last resort: either way the mirror ends
   exactly on the verified client state. *)
let ensure_consistent t st ~transport =
  if not (consistent_st st) then
    if not (try_repair t st ~transport) then resnapshot t st

let mirror_absorb t st ~transport =
  (match Delta_client.last_update st.dc with
  | Some (`Delta entries) -> (
    (* The suffix was verified consecutive from the client's previous
       version; if the mirror was at that version too, append in step.
       Any mismatch is divergence — localize and repair, or rebuild. *)
    try
      List.iter
        (fun (e : Changelog.entry) ->
          if e.Changelog.version = Changelog.version st.mirror + 1 then
            ignore (Changelog.append st.mirror e.Changelog.change)
          else raise Exit)
        entries
    with Exit -> ())
  | Some `Snapshot | None -> ());
  ensure_consistent t st ~transport;
  Changelog.compact st.mirror ~keep:t.config.compact_keep

let staleness_gauge t tenant st =
  if not (Obs.is_noop t.obs) then begin
    Obs.Gauge.set
      (Obs.gauge t.obs
         ~help:"Consecutive failed upstream syncs, per relay and tenant."
         ~labels:[ ("relay", t.id); ("tenant", tenant) ]
         "leakdetect_relay_staleness")
      (Delta_client.staleness st.dc).Signature_client.failed_syncs;
    Obs.Gauge.set
      (Obs.gauge t.obs
         ~help:"Ticks since the last verified sync, per relay and tenant."
         ~labels:[ ("relay", t.id); ("tenant", tenant) ]
         "leakdetect_relay_version_age")
      (max 0 (t.clock - st.last_sync_tick));
    Obs.Gauge.set
      (Obs.gauge t.obs
         ~help:"Verified signature version held, per relay and tenant."
         ~labels:[ ("relay", t.id); ("tenant", tenant) ]
         "leakdetect_relay_version")
      (Delta_client.version st.dc)
  end

let note_verified t st =
  st.synced <- true;
  st.last_sync_tick <- t.clock;
  st.verified_sum <- Delta_client.checksum st.dc

let sync_tenant t ~tenant ~transport =
  let st = state t ~tenant in
  count t (fun c -> { c with sync_rounds = c.sync_rounds + 1 });
  let report = Delta_client.sync st.dc ~transport in
  (match report.Signature_client.outcome with
  | Signature_client.Updated _ ->
    note_verified t st;
    mirror_absorb t st ~transport
  | Signature_client.Unchanged ->
    (* A verified 304: current state re-confirmed at our version.  The
       mirror may still have diverged underneath (fork injection, bit
       rot) — heal it now rather than waiting for the next delta. *)
    note_verified t st;
    ensure_consistent t st ~transport
  | Signature_client.Failed _ ->
    count t (fun c -> { c with sync_failures = c.sync_failures + 1 }));
  staleness_gauge t tenant st;
  report

(* --- gossip --- *)

(* One gossip round: for each tenant, probe every sibling with a
   head-only digest, order the strictly-fresher ones by (version desc,
   proximity, id) and catch up from the first that passes the client's
   full verification ladder.  The origin stays the only write authority:
   gossip only moves *verified* suffixes sideways, and any full=1
   escalation inside the catch-up sync is pinned to the origin. *)
let gossip t ~upstream =
  count t (fun c -> { c with gossip_rounds = c.gossip_rounds + 1 });
  List.iter
    (fun tenant ->
      let st = state t ~tenant in
      let held = Delta_client.version st.dc in
      let probe (pid, ptransport) =
        match
          Protocol.fetch_digest ~host ptransport ~tenant ~since:max_int
            ~interval:1
        with
        | Ok (_, (_ :: _ as checkpoints)) ->
          let v, _ = List.nth checkpoints (List.length checkpoints - 1) in
          if v > held then Some (v, pid, ptransport) else None
        | Ok (_, []) | Error _ -> None
      in
      let rank pid =
        match t.shard with
        | Some map -> (
          match Shard_map.distance map ~node:t.id ~origin:pid with
          | Some d -> d
          | None -> max_int)
        | None -> max_int
      in
      let candidates =
        List.sort
          (fun (v1, p1, _) (v2, p2, _) ->
            compare (-v1, rank p1, p1) (-v2, rank p2, p2))
          (List.filter_map probe t.peers)
      in
      let rec catch_up = function
        | [] -> ()
        | (_, _, ptransport) :: rest -> (
          let report =
            Delta_client.sync ~full_transport:(upstream ~tenant) st.dc
              ~transport:ptransport
          in
          match report.Signature_client.outcome with
          | Signature_client.Updated _ ->
            note_verified t st;
            mirror_absorb t st ~transport:ptransport;
            count t (fun c ->
                { c with gossip_catchups = c.gossip_catchups + 1 });
            staleness_gauge t tenant st
          | Signature_client.Unchanged | Signature_client.Failed _ ->
            catch_up rest)
      in
      catch_up candidates)
    (tenants t)

(* --- adversarial harness hook --- *)

let inject_fork t ~tenant =
  let st = state t ~tenant in
  (* Re-point recent history: drop the newest mirror entry, then append
     two bogus ones.  The mirror ends one version *ahead* of the
     verified state with a diverged tail, while the prefix up to
     head - 1 still agrees — exactly the shape ranged repair exists
     for.  The serving guard trips on the very next request. *)
  let entries = Changelog.entries st.mirror in
  let kept =
    match List.rev entries with [] -> [] | _ :: rest -> List.rev rest
  in
  (match
     Changelog.restore
       ~base_version:(Changelog.horizon st.mirror)
       ~base:(Changelog.base st.mirror)
       ~next_id:0 ~entries:kept
   with
  | Ok log -> st.mirror <- log
  | Error e -> invalid_arg ("Relay: inject_fork failed: " ^ e));
  let bogus i =
    Signature.make
      ~id:(Changelog.next_id st.mirror + 9973 + i)
      ~mode:Signature.Conjunction ~cluster_size:2
      [ Printf.sprintf "forged=entry%d" i ]
  in
  ignore (Changelog.append st.mirror (Changelog.Add (bogus 0)));
  ignore (Changelog.append st.mirror (Changelog.Add (bogus 1)))

(* --- serving --- *)

let counters t = t.counters

let relay_headers t st =
  [ ("X-Relay-Id", t.id);
    ( "X-Relay-Staleness",
      string_of_int
        (Delta_client.staleness st.dc).Signature_client.failed_syncs );
    ( "X-Relay-Version-Age",
      string_of_int (max 0 (t.clock - st.last_sync_tick)) ) ]

(* Serve a tenant endpoint from the mirror, behind the relay's guard: 404
   for a tenant this relay does not carry, 503 before the first verified
   sync (never an empty set a synced client would refuse as a
   regression) and 503 while the mirror has diverged from the verified
   state (fork, bit rot) — repair will converge it. *)
let guarded t ~tenant serve =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | None -> Http.Response.make 404
  | Some st when st.synced && consistent_st st -> serve st
  | Some st ->
    count t (fun c ->
        if st.synced then
          { c with served_inconsistent = c.served_inconsistent + 1 }
        else { c with served_unready = c.served_unready + 1 });
    Http.Response.make
      ~headers:(Http.Headers.of_list (("Retry-After", "1") :: relay_headers t st))
      503

(* Candidate reports are forwarded verbatim: the origin judges them. *)
let forward_candidates t (request : Http.Request.t) =
  let answer =
    match t.upstream with
    | None -> None
    | Some upstream -> (
      match upstream (Http.Wire.print request) with
      | Error _ -> None
      | Ok raw -> Result.to_option (Http.Response.parse raw))
  in
  match answer with
  | Some response ->
    count t (fun c -> { c with forwarded = c.forwarded + 1 });
    response
  | None ->
    count t (fun c -> { c with forward_failures = c.forward_failures + 1 });
    Http.Response.make
      ~headers:(Http.Headers.of_list [ ("Retry-After", "1") ])
      503

(* Scrape-time export: the counter totals as gauges plus the per-tenant
   freshness gauges, refreshed so a scrape between events still sees
   current values. *)
let refresh_metrics t =
  if not (Obs.is_noop t.obs) then begin
    let gauge name help value =
      Obs.Gauge.set
        (Obs.gauge t.obs ~help ~labels:[ ("relay", t.id) ] name)
        value
    in
    let c = t.counters in
    List.iter
      (fun (name, help, value) -> gauge ("leakdetect_relay_" ^ name) help value)
      [ ("sync_rounds", "Upstream sync rounds attempted.", c.sync_rounds);
        ( "sync_failures",
          "Upstream sync rounds that exhausted the retry budget.",
          c.sync_failures );
        ("resnapshots", "Full mirror rebuilds.", c.resnapshots);
        ( "resnapshot_bytes",
          "Canonical snapshot bytes paid by mirror rebuilds.",
          c.resnapshot_bytes );
        ("repairs", "Ranged anti-entropy mirror repairs.", c.repairs);
        ( "repair_bytes",
          "Wire bytes paid by ranged repairs (digest + suffix).",
          c.repair_bytes );
        ("gossip_rounds", "Sibling gossip rounds run.", c.gossip_rounds);
        ( "gossip_catchups",
          "Tenant catch-ups pulled from a sibling during gossip.",
          c.gossip_catchups );
        ("served_delta", "Delta responses served.", c.served_delta);
        ("served_snapshot", "Snapshot responses served.", c.served_snapshot);
        ("served_not_modified", "304 responses served.", c.served_not_modified);
        ("served_unready", "503s before the first verified sync.", c.served_unready);
        ( "served_inconsistent",
          "503s while the mirror diverged from the verified state.",
          c.served_inconsistent );
        ("served_digest", "Digest responses served.", c.served_digest);
        ("forwarded", "Candidate POSTs relayed upstream.", c.forwarded);
        ("forward_failures", "Candidate forwards that failed.", c.forward_failures) ];
    Hashtbl.iter (fun tenant st -> staleness_gauge t tenant st) t.tenant_tbl
  end

let handle t request =
  match Protocol.route request with
  | Error answer -> answer
  | Ok Protocol.Metrics ->
    refresh_metrics t;
    Protocol.serve_metrics t.obs
  | Ok Protocol.Candidates -> forward_candidates t request
  | Ok (Protocol.Signatures { tenant; since; full }) ->
    guarded t ~tenant (fun st ->
        let mode, response =
          Protocol.serve_signatures ~headers:(relay_headers t st) st.mirror
            ~since ~full
        in
        count t (fun c ->
            match mode with
            | Protocol.Not_modified ->
              { c with served_not_modified = c.served_not_modified + 1 }
            | Protocol.Delta -> { c with served_delta = c.served_delta + 1 }
            | Protocol.Snapshot ->
              { c with served_snapshot = c.served_snapshot + 1 });
        response)
  | Ok (Protocol.Digest { tenant; since; interval }) ->
    guarded t ~tenant (fun st ->
        count t (fun c -> { c with served_digest = c.served_digest + 1 });
        Protocol.serve_digest ~headers:(relay_headers t st) st.mirror ~since
          ~interval)

let wire_transport t raw = Protocol.wire_transport (handle t) raw
