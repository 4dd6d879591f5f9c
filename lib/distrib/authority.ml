module Http = Leakdetect_http
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Leak_error = Leakdetect_util.Leak_error
module Wal = Leakdetect_store.Wal
module Snapshot = Leakdetect_store.Snapshot
module Obs = Leakdetect_obs.Obs

let check_id what s =
  if not (Protocol.id_ok s) then
    invalid_arg (Printf.sprintf "Authority: bad %s id %S" what s)

type config = { k : int; reporter_cap : int; compact_keep : int }

let default_config = { k = 3; reporter_cap = 16; compact_keep = 64 }

(* --- per-tenant state --- *)

type candidate = {
  exemplar : Signature.t;  (* first-received form; id/cluster_size ignored *)
  reporters : (string, unit) Hashtbl.t;
}

type tenant_state = {
  name : string;
  log : Changelog.t;
  candidates : (string, candidate) Hashtbl.t;  (* key -> candidate *)
  pending : (string, int) Hashtbl.t;  (* reporter -> live memberships *)
}

(* A candidate's identity is its mode plus token list: the reporter-local
   id and cluster size are not part of it. *)
let key_of (s : Signature.t) =
  Signature_io.to_line
    (Signature.make ~id:0 ~mode:s.Signature.mode ~cluster_size:0
       s.Signature.tokens)

let fresh_tenant name =
  {
    name;
    log = Changelog.create ();
    candidates = Hashtbl.create 16;
    pending = Hashtbl.create 16;
  }

(* --- journal entries --- *)

type jentry =
  | Change of { tenant : string; entry : Changelog.entry }
  | Report of { tenant : string; reporter : string; signature : Signature.t }
  | Adopt of { tenant : string; payload : string }
      (* A folded tenant section (see the snapshot codec) taken over from
         another origin during a rebalance.  WAL frames are length-
         prefixed, so the embedded newlines are safe. *)
  | Release of { tenant : string; at : int }
      (* Tenant handed off at version [at]; the version gates replay the
         same way Change versions do. *)
  | Shard of { self : string; line : string }
      (* The shard map (Shard_map line codec) this origin serves under,
         plus its own id — installing a map is a journaled transition. *)

let jentry_to_payload = function
  | Change { tenant; entry } ->
    Printf.sprintf "change\t%s\t%s" tenant (Changelog.entry_to_line entry)
  | Report { tenant; reporter; signature } ->
    Printf.sprintf "report\t%s\t%s\t%s" tenant reporter
      (Signature_io.to_line signature)
  | Adopt { tenant; payload } -> Printf.sprintf "adopt\t%s\t%s" tenant payload
  | Release { tenant; at } -> Printf.sprintf "release\t%s\t%d" tenant at
  | Shard { self; line } -> Printf.sprintf "shard\t%s\t%s" self line

let split1 s =
  match String.index_opt s '\t' with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let jentry_of_payload payload =
  match split1 payload with
  | Some ("change", rest) -> (
    match split1 rest with
    | Some (tenant, line) when Protocol.id_ok tenant -> (
      match Changelog.entry_of_line line with
      | Ok entry -> Ok (Change { tenant; entry })
      | Error e -> Error e)
    | _ -> Error "change entry: bad tenant")
  | Some ("report", rest) -> (
    match split1 rest with
    | Some (tenant, rest) when Protocol.id_ok tenant -> (
      match split1 rest with
      | Some (reporter, line) when Protocol.id_ok reporter -> (
        match Signature_io.of_line line with
        | Ok signature -> Ok (Report { tenant; reporter; signature })
        | Error e -> Error ("report entry: " ^ Leak_error.to_string e))
      | _ -> Error "report entry: bad reporter")
    | _ -> Error "report entry: bad tenant")
  | Some ("adopt", rest) -> (
    match split1 rest with
    | Some (tenant, payload) when Protocol.id_ok tenant ->
      Ok (Adopt { tenant; payload })
    | _ -> Error "adopt entry: bad tenant")
  | Some ("release", rest) -> (
    match split1 rest with
    | Some (tenant, at) when Protocol.id_ok tenant -> (
      match int_of_string_opt at with
      | Some at when at >= 0 -> Ok (Release { tenant; at })
      | _ -> Error "release entry: bad version")
    | _ -> Error "release entry: bad tenant")
  | Some ("shard", rest) -> (
    match split1 rest with
    | Some (self, line) when Protocol.id_ok self -> Ok (Shard { self; line })
    | _ -> Error "shard entry: bad self id")
  | Some (tag, _) -> Error (Printf.sprintf "unknown journal tag %S" tag)
  | None -> Error "empty journal entry"

(* --- the authority --- *)

type promotion = {
  tenant : string;
  signature : Signature.t;
  reporters : int;
  at_version : int;
}

exception Crashed of string

type t = {
  config : config;
  obs : Obs.t;
  tenants : (string, tenant_state) Hashtbl.t;
  dir : string option;
  mutable writer : Wal.writer option;
  mutable rev_promotions : promotion list;
  mutable shard : (string * Shard_map.t) option;  (* self id, map *)
}

let config t = t.config

let wal_path ~dir = Filename.concat dir "journal.log"
let snapshot_path ~dir = Filename.concat dir "snapshot"

let tenant_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenants [])

let tenants = tenant_names

(* Writes create a tenant on first use. *)
let lookup t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> ts
  | None ->
    let ts = fresh_tenant tenant in
    Hashtbl.replace t.tenants tenant ts;
    ts

(* Reads never do: an unknown tenant reads as an empty changelog that is
   dropped after use. *)
let read_log t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> ts.log
  | None -> Changelog.create ()

let version t ~tenant = Changelog.version (read_log t tenant)
let signatures t ~tenant = Changelog.current (read_log t tenant)
let checksum t ~tenant = Changelog.current_checksum (read_log t tenant)
let checksum_at t ~tenant ~version =
  Changelog.checksum_at (read_log t tenant) version
let horizon t ~tenant = Changelog.horizon (read_log t tenant)

let wal_size t = match t.writer with Some w -> Wal.size w | None -> 0
let promotions t = List.rev t.rev_promotions

let pending_candidates t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Hashtbl.length ts.candidates
  | None -> 0

(* --- obs --- *)

let count t ?labels name help =
  Obs.Counter.inc (Obs.counter t.obs ?labels ~help name)

let set_version_gauge t ts =
  Obs.Gauge.set
    (Obs.gauge t.obs ~help:"Per-tenant changelog head version."
       ~labels:[ ("tenant", ts.name) ]
       "leakdetect_authority_version")
    (Changelog.version ts.log)

(* --- journaling and application --- *)

let journal t jentry =
  match t.writer with
  | None -> ()
  | Some w ->
    Wal.append w (jentry_to_payload jentry);
    if not (Obs.is_noop t.obs) then
      count t "leakdetect_authority_journal_appends_total"
        "Entries appended to the authority journal."

let in_published_set ts key =
  List.exists (fun s -> key_of s = key) (Changelog.current ts.log)

let decr_pending ts reporter =
  match Hashtbl.find_opt ts.pending reporter with
  | Some n when n > 1 -> Hashtbl.replace ts.pending reporter (n - 1)
  | Some _ -> Hashtbl.remove ts.pending reporter
  | None -> ()

let pending_of ts reporter =
  Option.value ~default:0 (Hashtbl.find_opt ts.pending reporter)

(* Apply one changelog change to a tenant (in-memory).  An [Add] clears
   any pending candidate with the same identity: whether it arrived by
   publish or by promotion, the signature is now published and the tally
   is spent. *)
let apply_change ts change =
  let entry = Changelog.append ts.log change in
  (match change with
  | Changelog.Add s -> (
    let key = key_of s in
    match Hashtbl.find_opt ts.candidates key with
    | Some cand ->
      Hashtbl.iter (fun r () -> decr_pending ts r) cand.reporters;
      Hashtbl.remove ts.candidates key
    | None -> ())
  | Changelog.Retire _ -> ());
  entry

(* One committed change: journal first (flush-as-commit), then apply. *)
let commit_change t ts change =
  let version = Changelog.version ts.log + 1 in
  journal t (Change { tenant = ts.name; entry = { Changelog.version; change } });
  let entry = apply_change ts change in
  if not (Obs.is_noop t.obs) then begin
    count t
      ~labels:
        [ ("kind", match change with Changelog.Add _ -> "add" | _ -> "retire") ]
      "leakdetect_authority_changes_total"
      "Changelog entries committed, by kind.";
    set_version_gauge t ts
  end;
  entry

let promote t ts (cand : candidate) =
  let n_reporters = Hashtbl.length cand.reporters in
  let s = cand.exemplar in
  let promoted =
    Signature.make ~id:(Changelog.next_id ts.log) ~mode:s.Signature.mode
      ~cluster_size:n_reporters s.Signature.tokens
  in
  let entry = commit_change t ts (Changelog.Add promoted) in
  t.rev_promotions <-
    {
      tenant = ts.name;
      signature = promoted;
      reporters = n_reporters;
      at_version = entry.Changelog.version;
    }
    :: t.rev_promotions;
  count t "leakdetect_authority_promotions_total"
    "Candidates promoted to a published set.";
  entry.Changelog.version

(* Tally a report (shared by the live path and journal replay; admission
   control — caps, duplicate checks — happens before the journal write, so
   replay applies unconditionally but stays idempotent). *)
let apply_report ts ~reporter signature =
  let key = key_of signature in
  if in_published_set ts key then ()
  else
    let cand =
      match Hashtbl.find_opt ts.candidates key with
      | Some c -> c
      | None ->
        let c = { exemplar = signature; reporters = Hashtbl.create 4 } in
        Hashtbl.replace ts.candidates key c;
        c
    in
    if not (Hashtbl.mem cand.reporters reporter) then begin
      Hashtbl.replace cand.reporters reporter ();
      Hashtbl.replace ts.pending reporter (pending_of ts reporter + 1)
    end

(* --- snapshot codec --- *)

let cand_lines_of ts =
  let cands =
    List.sort compare
      (Hashtbl.fold (fun k c acc -> (k, c) :: acc) ts.candidates [])
  in
  List.map
    (fun (_, (c : candidate)) ->
      let reporters =
        List.sort compare
          (Hashtbl.fold (fun r () acc -> r :: acc) c.reporters [])
      in
      Printf.sprintf "cand\t%s\t%s"
        (String.concat "," reporters)
        (Signature_io.to_line c.exemplar))
    cands

(* One tenant as lines: the section form shared by the snapshot and the
   adopt transfer.  [folded] collapses the changelog to its head — base =
   current set at base_version = head, no entries — which is how a tenant
   travels between origins: the new owner continues at head + 1 and serves
   lagging clients snapshots. *)
let tenant_section ?(folded = false) ts =
  let base_version, base, entries =
    if folded then (Changelog.version ts.log, Changelog.current ts.log, [])
    else (Changelog.horizon ts.log, Changelog.base ts.log, Changelog.entries ts.log)
  in
  let cands = cand_lines_of ts in
  (Printf.sprintf "tenant\t%s\t%d\t%d\t%d\t%d\t%d" ts.name base_version
     (Changelog.next_id ts.log)
     (List.length base) (List.length entries) (List.length cands))
  :: List.map Signature_io.to_line base
  @ List.map Changelog.entry_to_line entries
  @ cands

let snapshot_payload t =
  let names = tenant_names t in
  String.concat "\n"
    ((Printf.sprintf "authority\t%d" (List.length names))
    :: List.concat_map
         (fun name -> tenant_section (Hashtbl.find t.tenants name))
         names)

let take n lines =
  let rec loop n acc = function
    | rest when n = 0 -> Some (List.rev acc, rest)
    | [] -> None
    | line :: rest -> loop (n - 1) (line :: acc) rest
  in
  loop n [] lines

let cand_of_line line =
  match split1 line with
  | Some ("cand", rest) -> (
    match split1 rest with
    | Some (reporters, sig_line) ->
      Result.map
        (fun exemplar -> (String.split_on_char ',' reporters, exemplar))
        (Protocol.signature_of_line sig_line)
    | None -> Error "snapshot: bad candidate line")
  | _ -> Error "snapshot: bad candidate line"

let parse_tenant_section header rest =
  let ( let* ) = Result.bind in
  match String.split_on_char '\t' header with
  | [ "tenant"; name; base_version; next_id; nbase; nentries; ncands ]
    when Protocol.id_ok name -> (
    match
      ( int_of_string_opt base_version,
        int_of_string_opt next_id,
        int_of_string_opt nbase,
        int_of_string_opt nentries,
        int_of_string_opt ncands )
    with
    | Some base_version, Some next_id, Some nbase, Some nentries, Some ncands
      when base_version >= 0 && next_id >= 0 && nbase >= 0 && nentries >= 0
           && ncands >= 0 -> (
      match take nbase rest with
      | None -> Error "snapshot: base set overruns payload"
      | Some (base_lines, rest) -> (
        let* base =
          Protocol.parse_lines Protocol.signature_of_line base_lines
        in
        match take nentries rest with
        | None -> Error "snapshot: entries overrun payload"
        | Some (entry_lines, rest) -> (
          let* entries =
            Protocol.parse_lines Protocol.entry_of_line entry_lines
          in
          match take ncands rest with
          | None -> Error "snapshot: candidates overrun payload"
          | Some (cand_lines, rest) ->
            let* log = Changelog.restore ~base_version ~base ~next_id ~entries in
            let ts =
              {
                name;
                log;
                candidates = Hashtbl.create 16;
                pending = Hashtbl.create 16;
              }
            in
            let* cands = Protocol.parse_lines cand_of_line cand_lines in
            List.iter
              (fun (reporters, exemplar) ->
                List.iter
                  (fun r -> apply_report ts ~reporter:r exemplar)
                  reporters)
              cands;
            Ok (ts, rest))))
    | _ -> Error "snapshot: bad tenant header")
  | _ -> Error "snapshot: bad tenant header"

let state_of_snapshot payload =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' payload with
  | header :: rest -> (
    match String.split_on_char '\t' header with
    | [ "authority"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        let tenants = Hashtbl.create (max 8 n) in
        let rec loop i rest =
          if i = n then
            if rest = [] then Ok tenants else Error "snapshot: trailing data"
          else
            match rest with
            | header :: rest ->
              let* ts, rest = parse_tenant_section header rest in
              Hashtbl.replace tenants ts.name ts;
              loop (i + 1) rest
            | [] -> Error "snapshot: missing tenant section"
        in
        loop 0 rest
      | _ -> Error "snapshot: bad header")
    | _ -> Error "snapshot: bad header")
  | [] -> Error "snapshot: empty payload"

(* --- recovery --- *)

type snapshot_status = Loaded | Absent | Corrupt of string

type report = {
  snapshot : snapshot_status;
  replayed : int;
  stale : int;
  undecodable : int;
  tail : Wal.tail;
  promoted_on_recovery : int;
}

let report_to_string r =
  Printf.sprintf
    "snapshot %s; %d entr%s replayed (%d stale), %d undecodable; tail %s; %d promoted on recovery"
    (match r.snapshot with
    | Loaded -> "loaded"
    | Absent -> "absent"
    | Corrupt e -> Printf.sprintf "CORRUPT (%s)" e)
    r.replayed
    (if r.replayed = 1 then "y" else "ies")
    r.stale r.undecodable
    (Wal.tail_to_string r.tail)
    r.promoted_on_recovery

let create ?(obs = Obs.noop) ?(config = default_config) () =
  if config.k < 1 then invalid_arg "Authority: k < 1";
  if config.reporter_cap < 1 then invalid_arg "Authority: reporter_cap < 1";
  {
    config;
    obs;
    tenants = Hashtbl.create 8;
    dir = None;
    writer = None;
    rev_promotions = [];
    shard = None;
  }

(* Parse a folded tenant section (adopt payload / export form) into a
   tenant state.  The section must be exactly one tenant, fully consumed. *)
let tenant_of_section payload =
  match String.split_on_char '\n' payload with
  | [] -> Error "adopt: empty payload"
  | header :: rest -> (
    match parse_tenant_section header rest with
    | Error _ as e -> e
    | Ok (ts, []) -> Ok ts
    | Ok (_, _ :: _) -> Error "adopt: trailing data")

(* Replay one journal entry onto recovered state.  Returns [`Applied] or
   [`Stale] (an entry whose version is not newer — the compaction crash
   window, or a duplicated tail record). *)
let replay_jentry t jentry =
  match jentry with
  | Change { tenant; entry } ->
    let ts = lookup t tenant in
    if entry.Changelog.version = Changelog.version ts.log + 1 then begin
      ignore (apply_change ts entry.Changelog.change);
      `Applied
    end
    else `Stale
  | Report { tenant; reporter; signature } ->
    let ts = lookup t tenant in
    apply_report ts ~reporter signature;
    `Applied
  | Adopt { tenant; payload } -> (
    (* Version-gated like Change: a snapshot written after the adoption
       already contains it (and possibly later changes) — re-installing
       the adopted base would regress past them. *)
    match tenant_of_section payload with
    | Error _ -> `Stale
    | Ok ts ->
      if ts.name <> tenant then `Stale
      else
        let local = version t ~tenant in
        if Changelog.version ts.log >= local then begin
          Hashtbl.replace t.tenants tenant ts;
          `Applied
        end
        else `Stale)
  | Release { tenant; at } ->
    (* Skip when local state has advanced past the handoff point: the
       snapshot postdates a re-adoption of the same tenant. *)
    if version t ~tenant > at then `Stale
    else begin
      Hashtbl.remove t.tenants tenant;
      `Applied
    end
  | Shard { self; line } -> (
    match Shard_map.of_line line with
    | Ok map ->
      t.shard <- Some (self, map);
      `Applied
    | Error _ -> `Stale)

let promote_ready t =
  List.fold_left
    (fun acc name ->
      let ts = Hashtbl.find t.tenants name in
      let ready =
        List.sort compare
          (Hashtbl.fold
             (fun key (c : candidate) acc ->
               if Hashtbl.length c.reporters >= t.config.k then key :: acc
               else acc)
             ts.candidates [])
      in
      List.fold_left
        (fun acc key ->
          match Hashtbl.find_opt ts.candidates key with
          | Some cand ->
            ignore (promote t ts cand);
            acc + 1
          | None -> acc)
        acc ready)
    0 (tenant_names t)

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s exists and is not a directory" dir)
  else
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error e -> Error e

let open_ ?(obs = Obs.noop) ?(config = default_config) ~dir () =
  match ensure_dir dir with
  | Error _ as e -> e
  | Ok () -> (
    let t = create ~obs ~config () in
    let t = { t with dir = Some dir } in
    let snapshot =
      match Snapshot.read (snapshot_path ~dir) with
      | Ok None -> Absent
      | Ok (Some payload) -> (
        match state_of_snapshot payload with
        | Ok tenants ->
          Hashtbl.iter (fun name ts -> Hashtbl.replace t.tenants name ts) tenants;
          Loaded
        | Error e -> Corrupt e)
      | Error e -> Corrupt e
    in
    (match snapshot with
    | Corrupt _ -> Hashtbl.reset t.tenants
    | Loaded | Absent -> ());
    let wal = wal_path ~dir in
    let replay () =
      if not (Sys.file_exists wal) then Ok (0, 0, 0, Wal.Clean)
      else
        match Wal.read wal with
        | Error _ as e -> e
        | Ok (payloads, tail) ->
          let replayed, stale, undecodable =
            List.fold_left
              (fun (replayed, stale, undecodable) payload ->
                match jentry_of_payload payload with
                | Error _ -> (replayed, stale, undecodable + 1)
                | Ok jentry -> (
                  match replay_jentry t jentry with
                  | `Applied -> (replayed + 1, stale, undecodable)
                  | `Stale -> (replayed + 1, stale + 1, undecodable)))
              (0, 0, 0) payloads
          in
          (match tail with
          | Wal.Clean -> Ok (replayed, stale, undecodable, tail)
          | Wal.Torn _ -> (
            match Wal.repair wal with
            | Ok _ -> Ok (replayed, stale, undecodable, tail)
            | Error _ as e -> e))
    in
    match replay () with
    | Error _ as e -> e
    | Ok (replayed, stale, undecodable, tail) -> (
      match Wal.open_append wal with
      | Error _ as e -> e
      | Ok writer ->
        t.writer <- Some writer;
        (* A crash between a candidate's k-th report and its promotion
           entry leaves the tally at >= k with nothing published; finish
           the job now that the journal is writable again. *)
        let promoted_on_recovery = promote_ready t in
        Obs.Counter.add
          (Obs.counter obs ~help:"Journal entries applied during recovery."
             "leakdetect_authority_replayed_entries_total")
          replayed;
        Ok
          ( t,
            { snapshot; replayed; stale; undecodable; tail; promoted_on_recovery }
          )))

let close t =
  match t.writer with
  | Some w ->
    Wal.close w;
    t.writer <- None
  | None -> ()

(* --- mutations --- *)

let diff_changes current desired =
  let module IM = Map.Make (Int) in
  let index set =
    List.fold_left (fun m s -> IM.add s.Signature.id s m) IM.empty set
  in
  let cur = index current and want = index desired in
  let adds =
    IM.fold
      (fun id s acc ->
        match IM.find_opt id cur with
        | Some old when Signature_io.to_line old = Signature_io.to_line s -> acc
        | _ -> Changelog.Add s :: acc)
      want []
    |> List.rev
  in
  let retires =
    IM.fold
      (fun id _ acc ->
        if IM.mem id want then acc else Changelog.Retire id :: acc)
      cur []
    |> List.rev
  in
  adds @ retires

let publish ?(inject = fun _ -> ()) t ~tenant desired =
  check_id "tenant" tenant;
  let ts = lookup t tenant in
  let changes = diff_changes (Changelog.current ts.log) desired in
  if changes = [] then begin
    count t "leakdetect_authority_publish_noops_total"
      "Publishes whose set was already live (no version bump).";
    Changelog.version ts.log
  end
  else begin
    List.iteri
      (fun i change ->
        inject i;
        ignore (commit_change t ts change))
      changes;
    count t "leakdetect_authority_publishes_total"
      "Signature sets published (at least one change committed).";
    Changelog.version ts.log
  end

type candidate_outcome =
  | Accepted of int
  | Duplicate
  | Promoted of int
  | Capped

let candidate_outcome_to_string = function
  | Accepted n -> Printf.sprintf "accepted(%d)" n
  | Duplicate -> "duplicate"
  | Promoted v -> Printf.sprintf "promoted(v%d)" v
  | Capped -> "capped"

let count_candidate t outcome =
  count t
    ~labels:
      [ ( "outcome",
          match outcome with
          | Accepted _ -> "accepted"
          | Duplicate -> "duplicate"
          | Promoted _ -> "promoted"
          | Capped -> "capped" ) ]
    "leakdetect_authority_candidates_total"
    "Candidate reports received, by outcome.";
  outcome

let report_candidate t ~tenant ~reporter signature =
  check_id "tenant" tenant;
  check_id "reporter" reporter;
  let ts = lookup t tenant in
  let key = key_of signature in
  if in_published_set ts key then count_candidate t Duplicate
  else
    let existing = Hashtbl.find_opt ts.candidates key in
    let already_member =
      match existing with
      | Some c -> Hashtbl.mem c.reporters reporter
      | None -> false
    in
    if already_member then count_candidate t Duplicate
    else if pending_of ts reporter >= t.config.reporter_cap then
      count_candidate t Capped
    else begin
      journal t (Report { tenant; reporter; signature });
      apply_report ts ~reporter signature;
      let cand = Hashtbl.find ts.candidates key in
      if Hashtbl.length cand.reporters >= t.config.k then
        count_candidate t (Promoted (promote t ts cand))
      else count_candidate t (Accepted (Hashtbl.length cand.reporters))
    end

let compact ?(inject = fun _ -> ()) t =
  Hashtbl.iter
    (fun _ ts -> Changelog.compact ts.log ~keep:t.config.compact_keep)
    t.tenants;
  match t.dir with
  | None -> ()
  | Some dir ->
    inject "pre_snapshot";
    Snapshot.write (snapshot_path ~dir) (snapshot_payload t);
    (* Crash window: new snapshot, old journal.  Replay is version-
       idempotent, so recovery lands on this same state. *)
    inject "post_snapshot";
    (match t.writer with Some w -> Wal.close w | None -> ());
    t.writer <- Some (Wal.create (wal_path ~dir));
    (* The snapshot codec carries tenants only; the shard assignment rides
       the journal, so re-seed the fresh journal with it. *)
    (match t.shard with
    | Some (self, map) ->
      journal t (Shard { self; line = Shard_map.to_line map })
    | None -> ());
    count t "leakdetect_authority_compactions_total"
      "Snapshot compactions performed."

(* --- sharding and rebalance --- *)

let shard t = t.shard

let owns t ~tenant =
  match t.shard with
  | None -> true
  | Some (self, map) -> Shard_map.owner map ~tenant = self

(* [self] need not be in the map: an origin holding a map that excludes
   it owns nothing and 421s everything — a standby waiting to join, or a
   node being drained out. *)
let set_shard t ~self map =
  check_id "origin" self;
  journal t (Shard { self; line = Shard_map.to_line map });
  t.shard <- Some (self, map)

let export_tenant t ~tenant =
  check_id "tenant" tenant;
  match Hashtbl.find_opt t.tenants tenant with
  | None -> Error (Printf.sprintf "export: unknown tenant %S" tenant)
  | Some ts -> Ok (String.concat "\n" (tenant_section ~folded:true ts))

let adopt_tenant t payload =
  match tenant_of_section payload with
  | Error _ as e -> e
  | Ok ts ->
    let local = version t ~tenant:ts.name in
    if Changelog.version ts.log < local then
      Error
        (Printf.sprintf
           "adopt: payload for %s at version %d behind local state at %d"
           ts.name (Changelog.version ts.log) local)
    else begin
      journal t (Adopt { tenant = ts.name; payload });
      Hashtbl.replace t.tenants ts.name ts;
      count t "leakdetect_authority_adoptions_total"
        "Tenants adopted from another origin during a rebalance.";
      if not (Obs.is_noop t.obs) then set_version_gauge t ts;
      Ok ts.name
    end

let release_tenant t ~tenant =
  check_id "tenant" tenant;
  match Hashtbl.find_opt t.tenants tenant with
  | None -> Error (Printf.sprintf "release: unknown tenant %S" tenant)
  | Some ts ->
    let at = Changelog.version ts.log in
    journal t (Release { tenant; at });
    Hashtbl.remove t.tenants tenant;
    count t "leakdetect_authority_releases_total"
      "Tenants released to another origin during a rebalance.";
    Ok at

(* --- HTTP --- *)

let respond t (response : Http.Response.t) =
  count t
    ~labels:[ ("code", string_of_int response.Http.Response.status) ]
    "leakdetect_authority_requests_total"
    "HTTP requests served, by status code.";
  response

let count_sync_response t mode =
  count t
    ~labels:[ ("mode", mode) ]
    "leakdetect_authority_sync_responses_total"
    "GET /signatures responses, by transfer mode."

(* When a shard map is installed, requests for tenants this origin does
   not own are misdirected — answer 421 naming the owner and epoch so the
   client can tell stale routing from a partitioned minority.  A tenant we
   own but have not adopted yet (the rebalance is mid-flight) is a 503:
   retryable, never a fresh empty tenant that would read as a version
   regression. *)
let shard_gate t ~tenant =
  match t.shard with
  | None -> Ok ()
  | Some (self, map) ->
    let owner = Shard_map.owner map ~tenant in
    if owner <> self then
      Error
        (Http.Response.make
           ~headers:
             (Http.Headers.of_list
                [ ("X-Shard-Epoch", string_of_int (Shard_map.epoch map));
                  ("X-Shard-Owner", owner) ])
           421)
    else if not (Hashtbl.mem t.tenants tenant) then
      Error
        (Http.Response.make
           ~headers:
             (Http.Headers.of_list
                [ ("X-Shard-Epoch", string_of_int (Shard_map.epoch map));
                  ("Retry-After", "1") ])
           503)
    else Ok ()

let handle_candidates t request =
  match Protocol.candidate_ids request with
  | Error bad -> bad
  | Ok (tenant, reporter) -> (
    match shard_gate t ~tenant with
    | Error misdirected -> misdirected
    | Ok () -> (
      match
        Protocol.parse_body Protocol.signature_of_line
          request.Http.Request.body
      with
      | Error _ | Ok [] -> Http.Response.make 400
      | Ok candidates ->
        let tally =
          List.fold_left
            (fun (tally : Protocol.tally) s ->
              match report_candidate t ~tenant ~reporter s with
              | Accepted _ -> { tally with accepted = tally.accepted + 1 }
              | Duplicate -> { tally with duplicate = tally.duplicate + 1 }
              | Promoted _ -> { tally with promoted = tally.promoted + 1 }
              | Capped -> { tally with capped = tally.capped + 1 })
            { Protocol.accepted = 0; duplicate = 0; promoted = 0; capped = 0 }
            candidates
        in
        Protocol.tally_response ~version:(version t ~tenant) tally))

let handle t request =
  respond t
  @@
  match Protocol.route request with
  | Error answer -> answer
  | Ok Protocol.Metrics -> Protocol.serve_metrics t.obs
  | Ok Protocol.Candidates -> handle_candidates t request
  | Ok (Protocol.Signatures { tenant; since; full }) -> (
    match shard_gate t ~tenant with
    | Error misdirected -> misdirected
    | Ok () ->
      let mode, response =
        Protocol.serve_signatures (read_log t tenant) ~since ~full
      in
      count_sync_response t
        (match mode with
        | Protocol.Not_modified -> "not_modified"
        | Protocol.Delta -> "delta"
        | Protocol.Snapshot -> "snapshot");
      response)
  | Ok (Protocol.Digest { tenant; since; interval }) -> (
    match shard_gate t ~tenant with
    | Error misdirected -> misdirected
    | Ok () ->
      count_sync_response t "digest";
      Protocol.serve_digest (read_log t tenant) ~since ~interval)

let wire_transport t raw = Protocol.wire_transport (handle t) raw
