(* Tests for the distribution tier (Leakdetect_distrib): changelog
   algebra and codec, authority HTTP protocol and k-anonymous promotion,
   journal crash-point sweeps, the delta client's fallback ladder, and
   miniature end-to-end soaks (single origin, and the relayed topology). *)

module Crc32 = Leakdetect_util.Crc32
module Fault = Leakdetect_fault.Fault
module Wal = Leakdetect_store.Wal
module Http = Leakdetect_http
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Signature_client = Leakdetect_monitor.Signature_client
module Changelog = Leakdetect_distrib.Changelog
module Authority = Leakdetect_distrib.Authority
module Delta_client = Leakdetect_distrib.Delta_client
module Shard_map = Leakdetect_distrib.Shard_map
module Relay = Leakdetect_distrib.Relay
module Topology = Leakdetect_distrib.Topology

let qtest = QCheck_alcotest.to_alcotest

(* --- scratch directories --- *)

let fresh_dir () =
  let f = Filename.temp_file "ld_distrib_test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let sig_ ?(mode = Signature.Conjunction) ?(cluster_size = 2) id tokens =
  Signature.make ~id ~mode ~cluster_size tokens

let s1 = sig_ 1 [ "imei=355021930123456"; "loc=35.6" ]
let s2 = sig_ 2 ~mode:Signature.Ordered [ "GET"; "/track"; "id=9774d56d" ]
let s3 = sig_ 3 [ "mac=00:11:22:33:44:55" ]

let lines set = String.concat "\n" (List.map Signature_io.to_line set)

let check_set msg expected got =
  Alcotest.(check string) msg (lines expected) (lines got)

(* --- changelog --- *)

let test_changelog_ops () =
  let log = Changelog.create () in
  Alcotest.(check int) "fresh version" 0 (Changelog.version log);
  let e1 = Changelog.append log (Changelog.Add s1) in
  Alcotest.(check int) "first entry at v1" 1 e1.Changelog.version;
  ignore (Changelog.append log (Changelog.Add s3));
  ignore (Changelog.append log (Changelog.Add s2));
  check_set "id-ascending regardless of append order" [ s1; s2; s3 ]
    (Changelog.current log);
  (* Add with an existing id replaces. *)
  let s1' = sig_ 1 [ "imei=355021930123456"; "loc=51.5" ] in
  ignore (Changelog.append log (Changelog.Add s1'));
  check_set "replace by id" [ s1'; s2; s3 ] (Changelog.current log);
  ignore (Changelog.append log (Changelog.Retire 2));
  check_set "retire removes" [ s1'; s3 ] (Changelog.current log);
  Alcotest.(check int) "version counts every change" 5 (Changelog.version log);
  (* Retire of an absent id is a no-op on the set but still a version. *)
  ignore (Changelog.append log (Changelog.Retire 99));
  check_set "absent retire no-op" [ s1'; s3 ] (Changelog.current log);
  Alcotest.(check int) "next id above every add" 4 (Changelog.next_id log);
  (* checksum_at answers at every retained version. *)
  (match Changelog.checksum_at log 2 with
  | Some sum ->
    Alcotest.(check int) "checksum_at matches replay" sum
      (Changelog.checksum_set [ s1; s3 ])
  | None -> Alcotest.fail "checksum_at must answer above the horizon");
  Alcotest.(check (option int)) "checksum beyond head" None
    (Changelog.checksum_at log 7)

let test_changelog_since_and_compact () =
  let log = Changelog.create () in
  ignore (Changelog.append log (Changelog.Add s1));
  ignore (Changelog.append log (Changelog.Add s2));
  ignore (Changelog.append log (Changelog.Add s3));
  ignore (Changelog.append log (Changelog.Retire 1));
  (match Changelog.since log 2 with
  | Some [ e3; e4 ] ->
    Alcotest.(check (list int)) "suffix versions" [ 3; 4 ]
      [ e3.Changelog.version; e4.Changelog.version ]
  | _ -> Alcotest.fail "since 2 must be the two newest entries");
  (match Changelog.since log 4 with
  | Some [] -> ()
  | _ -> Alcotest.fail "since head must be the empty delta");
  (match Changelog.since log 5 with
  | None -> ()
  | Some _ -> Alcotest.fail "since beyond head must be None");
  Changelog.compact log ~keep:1;
  Alcotest.(check int) "horizon advanced" 3 (Changelog.horizon log);
  Alcotest.(check int) "head unchanged" 4 (Changelog.version log);
  check_set "set unchanged by compaction" [ s2; s3 ] (Changelog.current log);
  (match Changelog.since log 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "sub-horizon since must be None");
  (match Changelog.since log 3 with
  | Some [ e ] -> Alcotest.(check int) "servable suffix" 4 e.Changelog.version
  | _ -> Alcotest.fail "since horizon must serve the kept entry");
  Alcotest.(check (option int)) "checksum below horizon" None
    (Changelog.checksum_at log 1);
  (* next_id survives compaction: retired id 1 is never reissued. *)
  Alcotest.(check int) "next_id preserved" 4 (Changelog.next_id log)

let test_changelog_codec () =
  let entries =
    [ { Changelog.version = 1; change = Changelog.Add s2 };
      { Changelog.version = 2; change = Changelog.Retire 7 };
      { Changelog.version = 3;
        change = Changelog.Add (sig_ 9 [ "tab\tin"; "line\nbreak" ]) } ]
  in
  List.iter
    (fun e ->
      match Changelog.entry_of_line (Changelog.entry_to_line e) with
      | Ok e' ->
        Alcotest.(check string) "line-stable roundtrip"
          (Changelog.entry_to_line e) (Changelog.entry_to_line e')
      | Error err -> Alcotest.fail err)
    entries;
  List.iter
    (fun bad ->
      match Changelog.entry_of_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not decode" bad)
    [ ""; "x\t1\tjunk"; "a\tnope\t"; "r\t1\tnotanid"; "a\t1"; "r\t-1\t3" ]

let test_changelog_restore_rejects_gaps () =
  let ok =
    Changelog.restore ~base_version:2 ~base:[ s1 ] ~next_id:5
      ~entries:[ { Changelog.version = 3; change = Changelog.Add s2 } ]
  in
  (match ok with
  | Ok log ->
    Alcotest.(check int) "restored head" 3 (Changelog.version log);
    check_set "restored set" [ s1; s2 ] (Changelog.current log)
  | Error e -> Alcotest.fail e);
  match
    Changelog.restore ~base_version:2 ~base:[ s1 ] ~next_id:5
      ~entries:[ { Changelog.version = 5; change = Changelog.Add s2 } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a version gap must not restore"

(* The cached head checksums never go stale: after every append, compact
   or restore, the memoized wire checksum and [current_checksum] equal a
   from-scratch computation over [current]. *)
let prop_cached_head_checksums =
  let gen =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
      QCheck.Gen.(
        list_size (1 -- 30)
          (pair (int_range 0 3) (pair (int_range 1 8) (int_range 0 999))))
  in
  QCheck.Test.make ~name:"cached head checksums equal a recomputation" ~count:200 gen
    (fun ops ->
      let log = ref (Changelog.create ()) in
      let fresh () =
        let cur = Changelog.current !log and version = Changelog.version !log in
        Changelog.head_wire_checksum !log = Changelog.wire_checksum ~version cur
        && Changelog.current_checksum !log = Changelog.checksum_set cur
      in
      fresh ()
      && List.for_all
           (fun (kind, (id, tok)) ->
             (match kind with
             | 0 -> ignore (Changelog.append !log (Changelog.Add (sig_ id [ Printf.sprintf "t%d" tok ])))
             | 1 -> ignore (Changelog.append !log (Changelog.Retire id))
             | 2 -> Changelog.compact !log ~keep:(tok mod 4)
             | _ -> (
               match
                 Changelog.restore ~base_version:(Changelog.horizon !log)
                   ~base:(Changelog.base !log) ~next_id:(Changelog.next_id !log)
                   ~entries:(Changelog.entries !log)
               with
               | Ok restored -> log := restored
               | Error e -> failwith e));
             (* Ask twice: the second answer comes from the cache. *)
             fresh () && fresh ())
           ops)

(* Any interleaving of adds/retires, compacted anywhere: the delta served
   from every servable [since] lands exactly on the full set. *)
let prop_delta_equals_snapshot =
  let gen =
    QCheck.make
      ~print:(fun (ops, keep) ->
        Printf.sprintf "%d ops, keep %d" (List.length ops) keep)
      QCheck.Gen.(
        pair
          (list_size (1 -- 25)
             (pair (int_range 0 1) (pair (int_range 1 8) (int_range 0 999))))
          (int_range 0 10))
  in
  QCheck.Test.make ~name:"delta from any since equals the full download"
    ~count:200 gen
    (fun (ops, keep) ->
      let log = Changelog.create () in
      List.iter
        (fun (kind, (id, tok)) ->
          let change =
            if kind = 0 then
              Changelog.Add (sig_ id [ Printf.sprintf "t%d" tok ])
            else Changelog.Retire id
          in
          ignore (Changelog.append log change))
        ops;
      Changelog.compact log ~keep;
      let full = Changelog.current log in
      let ok = ref true in
      for since = 0 to Changelog.version log do
        match Changelog.since log since with
        | None -> if since >= Changelog.horizon log then ok := false
        | Some entries ->
          (* Rebuild the client-side set at [since] by replaying the log
             from scratch — then apply the delta. *)
          let at_since =
            let log' = Changelog.create () in
            List.iter
              (fun (kind, (id, tok)) ->
                if Changelog.version log' < since then
                  ignore
                    (Changelog.append log'
                       (if kind = 0 then
                          Changelog.Add (sig_ id [ Printf.sprintf "t%d" tok ])
                        else Changelog.Retire id)))
              ops;
            Changelog.current log'
          in
          let landed =
            List.fold_left
              (fun set (e : Changelog.entry) ->
                Changelog.apply_change set e.Changelog.change)
              at_since entries
          in
          if lines landed <> lines full then ok := false
      done;
      !ok)

(* --- authority: protocol --- *)

let get target =
  Http.Request.make
    ~headers:(Http.Headers.of_list [ ("Host", "authority.test") ])
    Http.Request.GET target

let post target body =
  Http.Request.make
    ~headers:(Http.Headers.of_list [ ("Host", "authority.test") ])
    ~body Http.Request.POST target

let header r name = Http.Headers.get r.Http.Response.headers name

let reopen ~dir =
  match Authority.open_ ~dir () with
  | Ok (t, rep) -> (t, rep)
  | Error e -> Alcotest.fail e

(* One status table, two servers: the authority and a relay synced to it
   answer every protocol request with the same status, the same
   [X-Signature-*] and [Allow] headers and the same body. *)
let protocol_table =
  [ ("unknown path", get "/nope", 404);
    ("POST on /signatures", post "/signatures?tenant=t0" "", 405);
    ("GET on /candidates", get "/candidates?tenant=t0&reporter=r", 405);
    ("missing tenant", get "/signatures", 400);
    ("bad tenant id", get "/signatures?tenant=bad%20id", 400);
    ("unparseable since", get "/signatures?tenant=t0&since=banana", 400);
    ("negative since", get "/signatures?tenant=t0&since=-1", 400);
    ("zero digest interval", get "/digest?tenant=t0&interval=0", 400);
    ("304 at head", get "/signatures?tenant=t0&since=2", 304);
    ("delta at head - 1", get "/signatures?tenant=t0&since=1", 200);
    ("full=1", get "/signatures?tenant=t0&since=1&full=1", 200);
    ("digest", get "/digest?tenant=t0&since=0&interval=1", 200) ]

let protocol_view (r : Http.Response.t) =
  ( r.Http.Response.status,
    List.filter
      (fun (name, _) ->
        name = "Allow"
        || String.length name > 12 && String.sub name 0 12 = "X-Signature-")
      (Http.Headers.to_list r.Http.Response.headers),
    r.Http.Response.body )

let test_authority_http_statuses () =
  let auth = Authority.create () in
  let (_ : int) = Authority.publish auth ~tenant:"t0" [ s1; s2 ] in
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  ignore (Relay.sync_tenant relay ~tenant:"t0" ~transport:(Authority.wire_transport auth));
  let view = Alcotest.(triple int (list (pair string string)) string) in
  List.iter
    (fun (name, request, status) ->
      let a = protocol_view (Authority.handle auth request) in
      let (got, _, _) = a in
      Alcotest.(check int) (name ^ ": status") status got;
      Alcotest.check view (name ^ ": relay answers alike") a
        (protocol_view (Relay.handle relay request)))
    protocol_table;
  let check_status msg expected request =
    Alcotest.(check int) msg expected
      (Authority.handle auth request).Http.Response.status
  in
  Alcotest.(check (option string)) "405 names the allowed method" (Some "GET")
    (header (Authority.handle auth (post "/signatures?tenant=t0" "")) "Allow");
  check_status "bad reporter id" 400 (post "/candidates?tenant=t0&reporter=a%20b" "x");
  check_status "empty candidate body" 400 (post "/candidates?tenant=t0&reporter=r" "");
  (* 304 carries version and checksum headers. *)
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=2") in
  Alcotest.(check (option string)) "304 version header" (Some "2")
    (header r "X-Signature-Version");
  Alcotest.(check (option string)) "304 checksum header"
    (Some (Crc32.to_hex (Changelog.wire_checksum ~version:2 [ s1; s2 ])))
    (header r "X-Signature-Checksum");
  (* Delta mode for a servable suffix. *)
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check (option string)) "delta mode" (Some "delta")
    (header r "X-Signature-Mode");
  Alcotest.(check (option string)) "since echoed" (Some "1")
    (header r "X-Signature-Since");
  Alcotest.(check string) "delta body is the suffix"
    (Changelog.entry_to_line { Changelog.version = 2; change = Changelog.Add s2 })
    r.Http.Response.body;
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=1&full=1") in
  Alcotest.(check (option string)) "full=1 forces snapshot" (Some "snapshot")
    (header r "X-Signature-Mode");
  Alcotest.(check string) "snapshot body" (lines [ s1; s2 ]) r.Http.Response.body;
  (* An unknown tenant: the authority serves it empty, the relay does not
     carry it. *)
  let r = Authority.handle auth (get "/signatures?tenant=ghost&full=1") in
  Alcotest.(check int) "unknown tenant serves empty snapshot" 200
    r.Http.Response.status;
  Alcotest.(check string) "empty body" "" r.Http.Response.body;
  Alcotest.(check int) "relay 404s a tenant it does not carry" 404
    (Relay.handle relay (get "/signatures?tenant=ghost&full=1")).Http.Response.status;
  (* Reads never create a tenant, in memory or on disk. *)
  let ghost_reads auth =
    for i = 0 to 9 do
      List.iter
        (fun path ->
          ignore
            (Authority.handle auth
               (get (Printf.sprintf "%s?tenant=ghost%d" path i))))
        [ "/signatures"; "/digest" ]
    done
  in
  ghost_reads auth;
  Alcotest.(check (list string)) "ghost reads leave no tenant" [ "t0" ]
    (Authority.tenants auth);
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
      ghost_reads auth;
      Authority.compact auth;
      Authority.close auth;
      let auth, _ = reopen ~dir in
      Alcotest.(check (list string)) "no ghost survives compact + reopen"
        [ "t0" ] (Authority.tenants auth);
      Authority.close auth)

let test_authority_snapshot_below_horizon () =
  let auth = Authority.create ~config:{ Authority.default_config with compact_keep = 1 } () in
  let publish set = ignore (Authority.publish auth ~tenant:"t0" set) in
  publish [ s1 ];
  publish [ s1; s2 ];
  publish [ s1; s2; s3 ];
  Authority.compact auth;
  Alcotest.(check int) "horizon after compaction" 2
    (Authority.horizon auth ~tenant:"t0");
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check (option string)) "sub-horizon since falls back to snapshot"
    (Some "snapshot")
    (header r "X-Signature-Mode");
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=2") in
  Alcotest.(check (option string)) "at-horizon since still serves delta"
    (Some "delta")
    (header r "X-Signature-Mode")

(* --- authority: k-anonymous promotion --- *)

let candidate tokens = sig_ 0 ~cluster_size:1 tokens

let test_promotion_at_k () =
  let auth = Authority.create () in
  let (_ : int) = Authority.publish auth ~tenant:"t0" [ s1 ] in
  let c = candidate [ "cand"; "imsi=240080000000001" ] in
  let report r = Authority.report_candidate auth ~tenant:"t0" ~reporter:r c in
  (match report "alice" with
  | Authority.Accepted 1 -> ()
  | o -> Alcotest.failf "first report: %s" (Authority.candidate_outcome_to_string o));
  (* The same reporter again is a duplicate, never double-counted. *)
  (match report "alice" with
  | Authority.Duplicate -> ()
  | o -> Alcotest.failf "same reporter: %s" (Authority.candidate_outcome_to_string o));
  (match report "bob" with
  | Authority.Accepted 2 -> ()
  | o -> Alcotest.failf "second report: %s" (Authority.candidate_outcome_to_string o));
  Alcotest.(check int) "nothing published below k" 1
    (Authority.version auth ~tenant:"t0");
  (match report "carol" with
  | Authority.Promoted 2 -> ()
  | o -> Alcotest.failf "k-th report: %s" (Authority.candidate_outcome_to_string o));
  (match Authority.signatures auth ~tenant:"t0" with
  | [ _; s ] ->
    Alcotest.(check int) "cluster_size is the reporter count" 3
      s.Signature.cluster_size;
    Alcotest.(check bool) "fresh id past the published set" true
      (s.Signature.id > s1.Signature.id)
  | _ -> Alcotest.fail "published set plus the promotion");
  (match Authority.promotions auth with
  | [ p ] ->
    Alcotest.(check int) "audit trail records k reporters" 3
      p.Authority.reporters
  | _ -> Alcotest.fail "exactly one promotion audited");
  (* Reporting an already-published signature is a duplicate. *)
  match report "dave" with
  | Authority.Duplicate -> ()
  | o -> Alcotest.failf "published: %s" (Authority.candidate_outcome_to_string o)

let test_reporter_cap () =
  let auth =
    Authority.create
      ~config:{ Authority.default_config with reporter_cap = 2 } ()
  in
  let flood j =
    Authority.report_candidate auth ~tenant:"t0" ~reporter:"byz"
      (candidate [ "flood"; Printf.sprintf "z%d" j ])
  in
  (match flood 0 with Authority.Accepted 1 -> () | _ -> Alcotest.fail "first");
  (match flood 1 with Authority.Accepted 1 -> () | _ -> Alcotest.fail "second");
  (match flood 2 with
  | Authority.Capped -> ()
  | o -> Alcotest.failf "over cap: %s" (Authority.candidate_outcome_to_string o));
  Alcotest.(check int) "pending stuck at the cap" 2
    (Authority.pending_candidates auth ~tenant:"t0");
  (* Promotion frees cap room: k distinct reporters on one candidate. *)
  let c = candidate [ "flood"; "z0" ] in
  ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"r2" c);
  (match Authority.report_candidate auth ~tenant:"t0" ~reporter:"r3" c with
  | Authority.Promoted _ -> ()
  | o -> Alcotest.failf "promotion: %s" (Authority.candidate_outcome_to_string o));
  match flood 3 with
  | Authority.Accepted 1 -> ()
  | o ->
    Alcotest.failf "cap must free after promotion: %s"
      (Authority.candidate_outcome_to_string o)

let test_candidates_endpoint_tally () =
  let auth = Authority.create () in
  let body =
    String.concat "\n"
      (List.map Signature_io.to_line
         [ candidate [ "a"; "one" ]; candidate [ "a"; "two" ] ])
  in
  let r =
    Authority.handle auth (post "/candidates?tenant=t0&reporter=r0" body)
  in
  Alcotest.(check int) "tally is 200" 200 r.Http.Response.status;
  Alcotest.(check string) "tally body"
    "accepted\t2\nduplicate\t0\npromoted\t0\ncapped\t0" r.Http.Response.body

(* --- authority: durability and crash points --- *)

let publish_sets auth =
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t1" [ s3 ])

let test_authority_reopen () =
  with_dir (fun dir ->
      let auth, rep = reopen ~dir in
      Alcotest.(check bool) "fresh dir has no snapshot" true
        (rep.Authority.snapshot = Authority.Absent);
      publish_sets auth;
      ignore
        (Authority.report_candidate auth ~tenant:"t0" ~reporter:"r0"
           (candidate [ "pending"; "one" ]));
      let v0 = Authority.version auth ~tenant:"t0" in
      let set0 = Authority.signatures auth ~tenant:"t0" in
      Authority.close auth;
      let auth', rep' = reopen ~dir in
      Alcotest.(check bool) "clean tail" true (rep'.Authority.tail = Wal.Clean);
      Alcotest.(check int) "version recovered" v0
        (Authority.version auth' ~tenant:"t0");
      check_set "set recovered byte-identically" set0
        (Authority.signatures auth' ~tenant:"t0");
      Alcotest.(check (list string)) "tenants recovered" [ "t0"; "t1" ]
        (Authority.tenants auth');
      Alcotest.(check int) "pending candidate recovered" 1
        (Authority.pending_candidates auth' ~tenant:"t0");
      Authority.close auth')

(* Crash before each journal append of a multi-change publish: recovery
   must land on exactly the committed prefix, and re-issuing the publish
   must finish the job. *)
let test_publish_crash_point_sweep () =
  let desired = [ s1; s2; s3 ] in
  (* The publish diffs an empty set into three adds: 3 crash points. *)
  for crash_at = 0 to 2 do
    with_dir (fun dir ->
        let auth, _ = reopen ~dir in
        (try
           ignore
             (Authority.publish auth
                ~inject:(fun i ->
                  if i = crash_at then raise (Authority.Crashed "boom"))
                ~tenant:"t0" desired)
         with Authority.Crashed _ -> ());
        Authority.close auth;
        let auth', _ = reopen ~dir in
        Alcotest.(check int)
          (Printf.sprintf "crash at %d: committed prefix only" crash_at)
          crash_at
          (Authority.version auth' ~tenant:"t0");
        check_set
          (Printf.sprintf "crash at %d: prefix of adds" crash_at)
          (List.filteri (fun i _ -> i < crash_at) desired)
          (Authority.signatures auth' ~tenant:"t0");
        (* Re-issuing completes; the diff re-derives the missing tail. *)
        ignore (Authority.publish auth' ~tenant:"t0" desired);
        check_set
          (Printf.sprintf "crash at %d: re-publish completes" crash_at)
          desired
          (Authority.signatures auth' ~tenant:"t0");
        Authority.close auth')
  done

let test_compaction_crash_windows () =
  List.iter
    (fun window ->
      with_dir (fun dir ->
          let auth, _ = reopen ~dir in
          publish_sets auth;
          let v0 = Authority.version auth ~tenant:"t0" in
          let sum0 = Authority.checksum auth ~tenant:"t0" in
          (try
             Authority.compact
               ~inject:(fun p ->
                 if p = window then raise (Authority.Crashed window))
               auth
           with Authority.Crashed _ -> ());
          Authority.close auth;
          let auth', _ = reopen ~dir in
          Alcotest.(check int)
            (window ^ ": version survives")
            v0
            (Authority.version auth' ~tenant:"t0");
          Alcotest.(check int)
            (window ^ ": checksum survives")
            sum0
            (Authority.checksum auth' ~tenant:"t0");
          (* The recovered instance keeps working: mutate and recover again. *)
          ignore (Authority.publish auth' ~tenant:"t0" [ s1 ]);
          let v1 = Authority.version auth' ~tenant:"t0" in
          Authority.close auth';
          let auth'', _ = reopen ~dir in
          Alcotest.(check int)
            (window ^ ": post-recovery publish survives")
            v1
            (Authority.version auth'' ~tenant:"t0");
          Authority.close auth''))
    [ "pre_snapshot"; "post_snapshot" ]

let test_promotion_crash_recovers () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      let c = candidate [ "cand"; "crashy" ] in
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"a" c);
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"b" c);
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"c" c);
      Alcotest.(check int) "promoted live" 1 (Authority.version auth ~tenant:"t0");
      Authority.close auth;
      (* Replay sees three reports and the promotion's Add: the candidate
         must not resurrect (it is already in the published set). *)
      let auth', rep = reopen ~dir in
      Alcotest.(check int) "no ghost candidate" 0
        (Authority.pending_candidates auth' ~tenant:"t0");
      Alcotest.(check int) "no re-promotion" 0 rep.Authority.promoted_on_recovery;
      Alcotest.(check int) "version stable" 1
        (Authority.version auth' ~tenant:"t0");
      Authority.close auth')

let append_journal dir bytes =
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Authority.wal_path ~dir)
  in
  output_string oc bytes;
  close_out oc

let test_torn_journal_tail () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_sets auth;
      let v0 = Authority.version auth ~tenant:"t0" in
      Authority.close auth;
      append_journal dir "torn garbage that is not a frame";
      let auth', rep = reopen ~dir in
      (match rep.Authority.tail with
      | Wal.Torn _ -> ()
      | Wal.Clean -> Alcotest.fail "garbage tail must be reported torn");
      Alcotest.(check int) "committed versions survive the tear" v0
        (Authority.version auth' ~tenant:"t0");
      Authority.close auth')

(* --- the store: the authority journal as [leakdetect store] sees it --- *)

let tenant = "t0"

(* What a committed state is: version, checksum and serialized set. *)
let witness auth =
  ( Authority.version auth ~tenant,
    Authority.checksum auth ~tenant,
    lines (Authority.signatures auth ~tenant) )

let check_witness msg expected auth =
  let v, sum, set = expected and v', sum', set' = witness auth in
  Alcotest.(check int) (msg ^ ": version") v v';
  Alcotest.(check int) (msg ^ ": checksum") sum sum';
  Alcotest.(check string) (msg ^ ": set") set set'

(* Two publishes: v2, then v3. *)
let publish_two auth =
  ignore (Authority.publish auth ~tenant [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant [ s1; s2; s3 ])

(* Die inside [compact] between the snapshot rename and the journal
   reset: new snapshot, old journal. *)
let crash_in_compaction auth =
  try
    Authority.compact
      ~inject:(fun p -> if p = "post_snapshot" then raise (Authority.Crashed p))
      auth
  with Authority.Crashed _ -> ()

let append_frames dir payloads =
  append_journal dir (String.concat "" (List.map Wal.frame payloads))

(* A checksum-valid record that is not a journal entry is counted and
   skipped; the records around it still replay. *)
let test_store_journal_codec () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      ignore (Authority.publish auth ~tenant [ s1; s2 ]);
      Authority.close auth;
      append_frames dir [ "mystery\t1"; "change\tbad tenant!\t1\tadd"; "" ];
      let auth, report = reopen ~dir in
      Alcotest.(check int) "undecodable records counted" 3
        report.Authority.undecodable;
      Alcotest.(check bool) "tail clean" true (report.Authority.tail = Wal.Clean);
      ignore (Authority.publish auth ~tenant [ s1; s2; s3 ]);
      let live = witness auth in
      Authority.close auth;
      let auth', report' = reopen ~dir in
      Alcotest.(check int) "still skipped on the next replay" 3
        report'.Authority.undecodable;
      check_witness "entries after the junk replay" live auth';
      Authority.close auth')

(* A duplicated tail record (torn rewrite), an older record replayed
   after newer ones, and the old journal replayed over the snapshot
   written just before a compaction crash are all version-gated
   no-ops. *)
let test_store_replay_idempotent () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      let live = witness auth in
      crash_in_compaction auth;
      Authority.close auth;
      let auth', report = reopen ~dir in
      Alcotest.(check bool) "snapshot loaded" true
        (report.Authority.snapshot = Authority.Loaded);
      Alcotest.(check (pair int int)) "old journal replays as stale no-ops"
        (3, 3) (report.Authority.replayed, report.Authority.stale);
      check_witness "state not double-applied" live auth';
      Authority.close auth');
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      let live = witness auth in
      Authority.close auth;
      let payloads =
        match Wal.read (Authority.wal_path ~dir) with
        | Ok (payloads, _) -> payloads
        | Error e -> Alcotest.fail e
      in
      append_frames dir [ List.nth payloads 2; List.hd payloads ];
      let auth', report = reopen ~dir in
      Alcotest.(check int) "every record replayed" 5 report.Authority.replayed;
      Alcotest.(check int) "duplicate and older record are stale" 2
        report.Authority.stale;
      check_witness "state not moved" live auth';
      Authority.close auth')

let test_store_compact_reopen () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      let live = witness auth in
      Authority.compact auth;
      Alcotest.(check int) "compaction resets the journal"
        (String.length Wal.magic) (Authority.wal_size auth);
      Authority.close auth;
      let auth', report = reopen ~dir in
      Alcotest.(check bool) "snapshot loaded" true
        (report.Authority.snapshot = Authority.Loaded);
      Alcotest.(check int) "no journal left to replay" 0 report.Authority.replayed;
      check_witness "state preserved across compaction" live auth';
      Authority.close auth')

let test_store_corrupt_snapshot_falls_back () =
  let corrupt_and_reopen dir =
    Out_channel.with_open_bin (Filename.concat dir "snapshot") (fun oc ->
        output_string oc "garbage, not a snapshot");
    let auth, report = reopen ~dir in
    (match report.Authority.snapshot with
    | Authority.Corrupt _ -> ()
    | _ -> Alcotest.fail "damaged snapshot must be reported as corrupt");
    (auth, report)
  in
  (* Crash between the snapshot rename and the journal reset, then damage
     the snapshot: the full journal is still there, so journal-only
     replay restores the exact state. *)
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      let live = witness auth in
      crash_in_compaction auth;
      Authority.close auth;
      let auth', report = corrupt_and_reopen dir in
      Alcotest.(check int) "journal-only replay applies every entry" 0
        report.Authority.stale;
      check_witness "journal-only replay restores the state" live auth';
      Authority.close auth');
  (* After a completed compaction the journal holds only the later
     changes; with the snapshot gone they have no base to apply to, so
     recovery replays them as stale rather than inventing a state. *)
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      Authority.compact auth;
      (* Retires s1 and s2: two changes. *)
      ignore (Authority.publish auth ~tenant [ s3 ]);
      Authority.close auth;
      let auth', report = corrupt_and_reopen dir in
      Alcotest.(check int) "post-compaction entries replayed" 2
        report.Authority.replayed;
      Alcotest.(check int) "none applicable without the base" 2
        report.Authority.stale;
      Alcotest.(check int) "no fabricated version" 0
        (Authority.version auth' ~tenant);
      Authority.close auth')

let test_store_torn_tail_truncated () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      let live = witness auth in
      Authority.close auth;
      append_journal dir "torn garbage that is not a full frame";
      let auth', report = reopen ~dir in
      (match report.Authority.tail with
      | Wal.Torn _ -> ()
      | Wal.Clean -> Alcotest.fail "garbage tail must be reported torn");
      check_witness "committed entries survive" live auth';
      (* The repair rewrote the journal: reopening is clean and appends
         work. *)
      ignore (Authority.publish auth' ~tenant [ s3 ]);
      let repaired = witness auth' in
      Authority.close auth';
      let auth'', report'' = reopen ~dir in
      Alcotest.(check bool) "clean after repair" true
        (report''.Authority.tail = Wal.Clean);
      check_witness "post-repair publish survives" repaired auth'';
      Authority.close auth'')

(* A device synced before the restart is confirmed current by the
   recovered authority (the version-bound checksum survives replay), and
   versions continue from the recovered head. *)
let test_store_restore_endpoints () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_two auth;
      let client = Delta_client.create ~tenant () in
      let sync auth =
        (Delta_client.sync client ~transport:(Authority.wire_transport auth))
          .Signature_client.outcome
      in
      (match sync auth with
      | Signature_client.Updated _ -> ()
      | _ -> Alcotest.fail "loss-free sync must update");
      Authority.close auth;
      let auth', _ = reopen ~dir in
      (match sync auth' with
      | Signature_client.Unchanged -> ()
      | _ -> Alcotest.fail "recovered authority must confirm the synced set");
      Alcotest.(check int) "client still at the head" 3 (Delta_client.version client);
      Alcotest.(check int) "versions continue after recovery" 4
        (Authority.publish auth' ~tenant [ s1; s2; s3; sig_ 4 [ "imsi=2400800" ] ]);
      (match sync auth' with
      | Signature_client.Updated v -> Alcotest.(check int) "delta applies" 4 v
      | _ -> Alcotest.fail "post-recovery publish must reach the client");
      Authority.close auth')

(* Rate-0 fault plans are strict identities on log bytes. *)
let prop_rate0_log_identity =
  QCheck.Test.make ~name:"rate-0 plan never touches log bytes" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let plan = Fault.create ~seed:11 Fault.none in
      Fault.torn_write plan ~protect:8 ~tail_start:(String.length s / 2) s = s
      && Fault.crash_point plan ~len:(String.length s) = None
      && Fault.total plan = 0)


(* --- delta client --- *)

let loss_free auth raw = Authority.wire_transport auth raw

let new_client tenant = Delta_client.create ~seed:7 ~tenant ()

let sync_updated msg client transport =
  match (Delta_client.sync client ~transport).Signature_client.outcome with
  | Signature_client.Updated v -> v
  | Signature_client.Unchanged -> Alcotest.failf "%s: unchanged" msg
  | Signature_client.Failed e -> Alcotest.failf "%s: failed: %s" msg e

let test_delta_client_happy_path () =
  let auth = Authority.create () in
  let c = new_client "t0" in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let v = sync_updated "bootstrap" c (loss_free auth) in
  Alcotest.(check int) "bootstrap lands on head" 1 v;
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (sync_updated "incremental" c (loss_free auth));
  check_set "delta-assembled set" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  (* The bootstrap from since=0 is itself a servable suffix: both syncs
     count as deltas. *)
  Alcotest.(check int) "both syncs were deltas" 2 k.Delta_client.delta_updates;
  Alcotest.(check int) "no forced fulls" 0 k.Delta_client.forced_full;
  match (Delta_client.sync c ~transport:(loss_free auth)).Signature_client.outcome with
  | Signature_client.Unchanged -> ()
  | _ -> Alcotest.fail "up-to-date sync must be Unchanged"

let test_delta_client_gap_forces_full () =
  let auth =
    Authority.create ~config:{ Authority.default_config with compact_keep = 1 } ()
  in
  let c = new_client "t0" in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (sync_updated "bootstrap" c (loss_free auth));
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
  Authority.compact auth;
  (* since=1 is now below the horizon: the server answers snapshot. *)
  ignore (sync_updated "catch-up" c (loss_free auth));
  check_set "snapshot catch-up" [ s1; s2; s3 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "counted as snapshot" 1 k.Delta_client.snapshot_updates

let test_delta_client_rejects_corrupt_body () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let c = new_client "t0" in
  (* Corrupt a signature token in transit, leaving the frame parseable:
     the wire checksum must catch it and the same attempt must recover
     via full=1 (which we serve uncorrupted). *)
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let transport raw =
    match Authority.wire_transport auth raw with
    | Error _ as e -> e
    | Ok response ->
      if find_sub raw "full=1" <> None then Ok response
      else (
        match find_sub response "imei" with
        | None -> Ok response
        | Some i ->
          let b = Bytes.of_string response in
          Bytes.set b (i + 2) 'X';
          Ok (Bytes.to_string b))
  in
  ignore (sync_updated "corrupt delta falls back" c transport);
  check_set "landed on the true set" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "forced full counted" 1 k.Delta_client.forced_full

let test_delta_client_refuses_regression () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let c = new_client "t0" in
  ignore (sync_updated "bootstrap" c (loss_free auth));
  (* A rolled-back authority now serves version 1 < client's 2. *)
  let rolled = Authority.create () in
  ignore (Authority.publish rolled ~tenant:"t0" [ s3 ]);
  (match (Delta_client.sync c ~transport:(loss_free rolled)).Signature_client.outcome with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "regression must fail the sync");
  Alcotest.(check int) "client version untouched" 2 (Delta_client.version c);
  check_set "client set untouched" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check bool) "refusals counted" true
    (k.Delta_client.regressions_refused > 0)

(* --- mini soak: single origin, no relays, faults and crash points on --- *)

let single_origin =
  {
    Topology.default_config with
    Topology.origins = 1;
    standby_origins = 0;
    relays = 0;
    byzantine_relays = 0;
    partitions = 0;
    relay_crashes = 0;
    epoch_flips = 0;
    fork_injections = 0;
    clients = 24;
    tenants = 2;
    ticks = 240;
    sync_period = 12;
    publishes = 10;
    compact_every = 4;
    candidates = 3;
    byzantine = 1;
    origin_crash_rate = 0.25;
    client_restart_rate = 0.01;
    drain_rounds = 30;
    seed = 5;
  }

(* Shared by both mini soaks: every invariant at zero, the run passes its
   gates, and the fault plans actually fired. *)
let check_soak_ok report =
  let inv = report.Topology.invariants in
  Alcotest.(check int) "no divergence" 0 inv.Topology.divergences;
  Alcotest.(check int) "no regressions" 0 inv.Topology.regressions;
  Alcotest.(check int) "no sub-k promotions" 0 inv.Topology.sub_k_promotions;
  Alcotest.(check int) "no recovery mismatches" 0
    inv.Topology.recovery_mismatches;
  Alcotest.(check int) "everyone converged" 0 inv.Topology.unconverged;
  Alcotest.(check bool) "ok" true (Topology.ok report);
  Alcotest.(check bool) "faults actually fired" true
    (List.exists (fun (_, n) -> n > 0) report.Topology.fault_events)

let test_mini_soak () =
  with_dir (fun dir ->
      let report = Topology.run ~dir single_origin in
      check_soak_ok report;
      Alcotest.(check bool) "deltas dominate snapshots" true
        (report.Topology.steady_delta_ratio >= 1.0);
      Alcotest.(check int) "no relay traffic" 0 report.Topology.relay_requests)

let test_single_origin_deterministic () =
  let json () =
    with_dir (fun dir ->
        Leakdetect_util.Json.to_string
          (Topology.report_to_json (Topology.run ~dir single_origin)))
  in
  Alcotest.(check string) "same seed, same report" (json ()) (json ())

(* Every count that must not be negative, every rate that must lie in
   [0, 1], and the relay hostilities that need a relay tier: each is
   refused before the run creates its directory. *)
let test_topology_rejects_nonsense () =
  let d = Topology.default_config in
  let no_relays = { single_origin with Topology.relays = 0 } in
  let fault f = { d with Topology.fault = f d.Topology.fault } in
  let cases =
    [
      ("candidates", { d with Topology.candidates = -1 });
      ("byzantine", { d with Topology.byzantine = -1 });
      ("partitions", { d with Topology.partitions = -2 });
      ("relay_crashes", { d with Topology.relay_crashes = -1 });
      ("epoch_flips", { d with Topology.epoch_flips = -1 });
      ("compact_every", { d with Topology.compact_every = -1 });
      ("byzantine_corrupt_rate", { d with Topology.byzantine_corrupt_rate = 1.5 });
      ("origin_crash_rate", { d with Topology.origin_crash_rate = -0.1 });
      ("client_restart_rate", { d with Topology.client_restart_rate = 2. });
      ("min_offload", { d with Topology.min_offload = -0.5 });
    ]
    @ List.map (fun (name, bad) -> (name, fault bad)) Test_fault.bad_rates
    @ [
      ("no relays: partitions", { no_relays with Topology.partitions = 1 });
      ("no relays: relay_crashes", { no_relays with Topology.relay_crashes = 1 });
      ( "no relays: fork_injections",
        { no_relays with Topology.fork_injections = 1 } );
      ( "no relays: byzantine_relays",
        { no_relays with Topology.byzantine_relays = 1 } );
    ]
  in
  with_dir (fun root ->
      List.iter
        (fun (name, config) ->
          let dir = Filename.concat root "never" in
          (match Topology.run ~dir config with
          | _ -> Alcotest.failf "%s: nonsensical config accepted" name
          | exception Invalid_argument _ -> ());
          Alcotest.(check bool) (name ^ ": no directory") false
            (Sys.file_exists dir))
        cases)

(* --- changelog: the compaction boundary, keep = 0 included --- *)

let test_changelog_compact_keep_zero () =
  let log = Changelog.create () in
  ignore (Changelog.append log (Changelog.Add s1));
  ignore (Changelog.append log (Changelog.Add s2));
  Changelog.compact log ~keep:0;
  Alcotest.(check int) "horizon at head" 2 (Changelog.horizon log);
  (match Changelog.since log 2 with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "at-horizon delta must be empty"
  | None -> Alcotest.fail "a client exactly at the horizon gets the empty delta, not a snapshot");
  (match Changelog.since log 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "one version behind keep:0 must fall back to snapshot");
  check_set "set survives keep:0" [ s1; s2 ] (Changelog.current log);
  Alcotest.(check (option int)) "checksum still answers at the horizon"
    (Some (Changelog.checksum_set [ s1; s2 ]))
    (Changelog.checksum_at log 2)

let test_changelog_digest () =
  let log = Changelog.create () in
  for i = 1 to 10 do
    ignore (Changelog.append log (Changelog.Add (sig_ i [ Printf.sprintf "t%d" i ])))
  done;
  let d = Changelog.digest log ~since:0 ~interval:4 in
  (* Structure: ascending checkpoints, head always last, every line one
     the log itself vouches for. *)
  let versions = List.map fst d in
  Alcotest.(check bool) "ascending" true
    (List.sort_uniq compare versions = versions);
  (match List.rev d with
  | (v, sum) :: _ ->
    Alcotest.(check int) "head checkpoint" 10 v;
    Alcotest.(check int) "head sum" (Changelog.current_checksum log) sum
  | [] -> Alcotest.fail "digest must carry the head");
  List.iter
    (fun (v, sum) ->
      Alcotest.(check (option int)) "checkpoint agrees with checksum_at"
        (Some sum) (Changelog.checksum_at log v))
    d;
  (* Head-only freshness probe. *)
  Alcotest.(check (list (pair int int))) "head-only probe"
    [ (10, Changelog.current_checksum log) ]
    (Changelog.digest log ~since:max_int ~interval:1);
  (* Codec roundtrip, and the empty digest. *)
  (match Changelog.digest_of_body (Changelog.digest_to_body d) with
  | Ok d' -> Alcotest.(check (list (pair int int))) "codec roundtrip" d d'
  | Error e -> Alcotest.failf "digest roundtrip: %s" e);
  (match Changelog.digest_of_body "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty body is the empty digest");
  List.iter
    (fun body ->
      match Changelog.digest_of_body body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "must reject %S" body)
    [ "garbage"; "5\tnothex"; "5\t00ff00ff\n3\t00ff00ff" ];
  (try
     ignore (Changelog.digest log ~since:0 ~interval:0);
     Alcotest.fail "interval 0 must raise"
   with Invalid_argument _ -> ());
  (* Compaction moves the horizon: no checkpoint below it survives, so a
     diverged-below-horizon mirror correctly finds nothing to agree with
     and falls back to a rebuild. *)
  Changelog.compact log ~keep:4;
  let d = Changelog.digest log ~since:0 ~interval:1 in
  Alcotest.(check bool) "no checkpoint below the horizon" true
    (List.for_all (fun (v, _) -> v >= Changelog.horizon log) d)

let prop_compact_since_boundary =
  let gen =
    QCheck.make
      ~print:(fun (n, keep) -> Printf.sprintf "%d entries, keep %d" n keep)
      QCheck.Gen.(pair (int_range 1 30) (int_range 0 12))
  in
  QCheck.Test.make
    ~name:"since is servable exactly on [horizon, head] after compaction"
    ~count:200 gen
    (fun (n, keep) ->
      let log = Changelog.create () in
      for i = 1 to n do
        ignore
          (Changelog.append log (Changelog.Add (sig_ i [ Printf.sprintf "t%d" i ])))
      done;
      Changelog.compact log ~keep;
      let head = Changelog.version log and horizon = Changelog.horizon log in
      let ok = ref (horizon = head - min keep n) in
      for since = 0 to head + 1 do
        match Changelog.since log since with
        | None -> if since >= horizon && since <= head then ok := false
        | Some entries ->
          if since < horizon || since > head then ok := false
          else if List.length entries <> head - since then ok := false
      done;
      !ok)

(* --- shard map --- *)

let mk_map ~epoch origins =
  match Shard_map.create ~epoch ~origins () with
  | Ok m -> m
  | Error e -> Alcotest.failf "shard map: %s" e

let test_shard_map_basics () =
  (match Shard_map.create ~epoch:(-1) ~origins:[ "a" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative epoch must be rejected");
  (match Shard_map.create ~epoch:0 ~origins:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty origin set must be rejected");
  (match Shard_map.create ~epoch:0 ~origins:[ "a"; "a" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate origins must be rejected");
  (match Shard_map.create ~epoch:0 ~origins:[ "bad id" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad origin id must be rejected");
  let m = mk_map ~epoch:3 [ "b"; "a" ] in
  Alcotest.(check int) "epoch" 3 (Shard_map.epoch m);
  Alcotest.(check (list string)) "origins sorted" [ "a"; "b" ]
    (Shard_map.origins m);
  let tenants = List.init 50 (fun i -> Printf.sprintf "t%d" i) in
  List.iter
    (fun t ->
      let o = Shard_map.owner m ~tenant:t in
      Alcotest.(check bool) "owner from the set" true (List.mem o [ "a"; "b" ]);
      Alcotest.(check string) "ownership is deterministic" o
        (Shard_map.owner m ~tenant:t))
    tenants;
  (* Advancing the epoch over the same origin set moves nothing: the
     rendezvous score ignores the epoch. *)
  let m' =
    match Shard_map.advance m ~origins:[ "a"; "b" ] with
    | Ok m -> m
    | Error e -> Alcotest.failf "advance: %s" e
  in
  Alcotest.(check int) "epoch advanced" 4 (Shard_map.epoch m');
  Alcotest.(check int) "same origins move nothing" 0
    (List.length (Shard_map.moved ~before:m ~after:m' ~tenants))

let test_shard_map_codec () =
  let m = mk_map ~epoch:7 [ "origin1"; "origin0"; "standby" ] in
  (match Shard_map.of_line (Shard_map.to_line m) with
  | Ok m' ->
    Alcotest.(check int) "epoch survives" 7 (Shard_map.epoch m');
    Alcotest.(check (list string)) "origins survive" (Shard_map.origins m)
      (Shard_map.origins m');
    List.iter
      (fun i ->
        let t = Printf.sprintf "t%d" i in
        Alcotest.(check string) "ownership survives"
          (Shard_map.owner m ~tenant:t)
          (Shard_map.owner m' ~tenant:t))
      (List.init 20 Fun.id)
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  List.iter
    (fun line ->
      match Shard_map.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "must reject %S" line)
    [ ""; "nope"; "-1\ta"; "3\t"; "3\ta,a"; "x\ta,b" ]

let test_shard_map_edges () =
  let tenants = List.init 60 (fun i -> Printf.sprintf "t%d" i) in
  let mk ?(weights = []) ?(proximity = []) ~epoch origins =
    match Shard_map.create ~weights ~proximity ~epoch ~origins () with
    | Ok m -> m
    | Error e -> Alcotest.failf "shard map: %s" e
  in
  (* A single-origin map routes everything to it. *)
  let solo = mk ~epoch:0 [ "only" ] in
  List.iter
    (fun t ->
      Alcotest.(check string) "solo origin owns all" "only"
        (Shard_map.owner solo ~tenant:t))
    tenants;
  (* An identical-origin-set epoch flip moves zero tenants even when the
     map carries weights and proximity. *)
  let m =
    mk ~weights:[ ("a", 3) ]
      ~proximity:[ ("r0", "a", 1); ("r0", "r1", 2) ]
      ~epoch:0 [ "a"; "b" ]
  in
  (match Shard_map.advance m ~origins:[ "a"; "b" ] with
  | Error e -> Alcotest.failf "advance: %s" e
  | Ok m' ->
    Alcotest.(check int) "epoch flipped" 1 (Shard_map.epoch m');
    Alcotest.(check int) "identical set moves nothing" 0
      (List.length (Shard_map.moved ~before:m ~after:m' ~tenants));
    Alcotest.(check int) "weight carried" 3 (Shard_map.weight m' ~origin:"a");
    Alcotest.(check (option int)) "relay-to-relay distance carried" (Some 2)
      (Shard_map.distance m' ~node:"r0" ~origin:"r1"));
  (* All-weight-1 scoring reduces to unweighted HRW exactly. *)
  let unweighted = mk ~epoch:0 [ "a"; "b"; "c" ] in
  let w1 =
    mk ~weights:[ ("a", 1); ("b", 1); ("c", 1) ] ~epoch:0 [ "a"; "b"; "c" ]
  in
  List.iter
    (fun t ->
      Alcotest.(check string) "weight 1 = unweighted"
        (Shard_map.owner unweighted ~tenant:t)
        (Shard_map.owner w1 ~tenant:t))
    tenants;
  (* Raising one origin's weight only pulls tenants toward it — nobody
     moves between the other origins — and pulls a larger share. *)
  let heavy = mk ~weights:[ ("a", 4) ] ~epoch:0 [ "a"; "b"; "c" ] in
  List.iter
    (fun t ->
      let o = Shard_map.owner heavy ~tenant:t in
      Alcotest.(check bool) "weight only attracts" true
        (o = "a" || o = Shard_map.owner unweighted ~tenant:t))
    tenants;
  let count m o =
    List.length (List.filter (fun t -> Shard_map.owner m ~tenant:t = o) tenants)
  in
  Alcotest.(check bool) "heavier origin owns more" true
    (count heavy "a" > count unweighted "a");
  (* Rejections: unknown-origin weight, weight < 1, negative distance. *)
  List.iter
    (fun (weights, proximity) ->
      match Shard_map.create ~weights ~proximity ~epoch:0 ~origins:[ "a" ] () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad weights/proximity must be rejected")
    [ ([ ("ghost", 2) ], []); ([ ("a", 0) ], []); ([], [ ("r0", "a", -1) ]) ];
  (* Codec roundtrip carries weights and proximity. *)
  (match Shard_map.of_line (Shard_map.to_line heavy) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok heavy' ->
    Alcotest.(check int) "weight survives" 4 (Shard_map.weight heavy' ~origin:"a");
    List.iter
      (fun t ->
        Alcotest.(check string) "weighted ownership survives"
          (Shard_map.owner heavy ~tenant:t)
          (Shard_map.owner heavy' ~tenant:t))
      tenants);
  match Shard_map.of_line (Shard_map.to_line m) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok m' ->
    Alcotest.(check (option int)) "proximity survives" (Some 1)
      (Shard_map.distance m' ~node:"r0" ~origin:"a")

let prop_shard_map_minimal_disruption =
  let gen =
    QCheck.make
      ~print:(fun (n, seed) -> Printf.sprintf "%d origins, seed %d" n seed)
      QCheck.Gen.(pair (int_range 1 6) (int_range 0 999))
  in
  QCheck.Test.make
    ~name:"adding an origin only moves tenants onto it (and removal back off)"
    ~count:150 gen
    (fun (n, seed) ->
      let origins = List.init n (fun i -> Printf.sprintf "o%d-%d" seed i) in
      let tenants = List.init 40 (fun i -> Printf.sprintf "t%d-%d" seed i) in
      let before = mk_map ~epoch:0 origins in
      let joined = Printf.sprintf "new-%d" seed in
      match Shard_map.advance before ~origins:(joined :: origins) with
      | Error _ -> false
      | Ok after -> (
        let inbound = Shard_map.moved ~before ~after ~tenants in
        List.for_all (fun (_, _, dst) -> dst = joined) inbound
        &&
        match Shard_map.advance after ~origins with
        | Error _ -> false
        | Ok rolled_back ->
          let outbound = Shard_map.moved ~before:after ~after:rolled_back ~tenants in
          List.for_all (fun (_, src, _) -> src = joined) outbound
          (* and everyone lands back exactly where they started *)
          && List.for_all
               (fun t ->
                 Shard_map.owner rolled_back ~tenant:t
                 = Shard_map.owner before ~tenant:t)
               tenants))

(* --- delta client: 304 fork smell (split-brain defense) --- *)

let test_delta_client_304_fork_smell () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (* A forked authority at the same version holding a different history. *)
  let forked = Authority.create () in
  ignore (Authority.publish forked ~tenant:"t0" [ s3 ]);
  ignore (Authority.publish forked ~tenant:"t0" [ s3; s2 ]);
  let c = new_client "t0" in
  ignore (sync_updated "bootstrap from origin" c (loss_free auth));
  Alcotest.(check int) "at the origin head" 2 (Delta_client.version c);
  (* The forked relay answers our since=2 with a 304 whose checksum does
     not match our set at version 2.  Accepting it would silently pin us
     to the fork; the client must refuse and resync in full against the
     origin — never against the relay that smelled forked. *)
  let origin_fulls = ref 0 in
  let origin_transport raw =
    incr origin_fulls;
    loss_free auth raw
  in
  (match
     (Delta_client.sync_via c ~relays:[ loss_free forked ]
        ~origin:origin_transport)
       .Signature_client.outcome
   with
  | Signature_client.Updated _ | Signature_client.Unchanged -> ()
  | Signature_client.Failed e -> Alcotest.failf "fork recovery failed: %s" e);
  let k = Delta_client.counters c in
  Alcotest.(check bool) "fork smell counted" true (k.Delta_client.fork_smells > 0);
  Alcotest.(check bool) "recovered via the origin" true (!origin_fulls > 0);
  Alcotest.(check bool) "escalation counted" true (k.Delta_client.escalations > 0);
  check_set "landed on the origin's set, not the fork" [ s1; s2 ]
    (Delta_client.signatures c);
  Alcotest.(check int) "checksum agrees with the origin"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c)

(* --- authority: shard gate and tenant migration --- *)

(* Find one tenant the map assigns to each origin. *)
let tenant_owned_by map name =
  let rec go i =
    if i > 10_000 then Alcotest.failf "no tenant hashes to %s" name
    else
      let t = Printf.sprintf "t%d" i in
      if Shard_map.owner map ~tenant:t = name then t else go (i + 1)
  in
  go 0

let test_authority_shard_gate () =
  let auth = Authority.create () in
  let map = mk_map ~epoch:2 [ "me"; "other" ] in
  let mine = tenant_owned_by map "me"
  and foreign = tenant_owned_by map "other" in
  ignore (Authority.publish auth ~tenant:mine [ s1 ]);
  ignore (Authority.publish auth ~tenant:foreign [ s3 ]);
  Authority.set_shard auth ~self:"me" map;
  Alcotest.(check bool) "owns its tenant" true (Authority.owns auth ~tenant:mine);
  Alcotest.(check bool) "does not own the foreign one" false
    (Authority.owns auth ~tenant:foreign);
  (* Owned tenants are served as before. *)
  let r = Authority.handle auth (get ("/signatures?tenant=" ^ mine ^ "&since=1")) in
  Alcotest.(check int) "owned tenant still serves" 304 r.Http.Response.status;
  (* Unowned tenants draw 421 naming the owner and epoch — even though we
     still hold their state. *)
  let r = Authority.handle auth (get ("/signatures?tenant=" ^ foreign ^ "&since=0")) in
  Alcotest.(check int) "unowned tenant misdirected" 421 r.Http.Response.status;
  Alcotest.(check (option string)) "owner advertised" (Some "other")
    (header r "X-Shard-Owner");
  Alcotest.(check (option string)) "epoch advertised" (Some "2")
    (header r "X-Shard-Epoch");
  let r =
    Authority.handle auth (post ("/candidates?tenant=" ^ foreign ^ "&reporter=r") "x")
  in
  Alcotest.(check int) "candidates misdirected too" 421 r.Http.Response.status;
  (* An owned tenant we have not adopted yet draws a retryable 503 —
     never a fresh empty set a synced client would read as a rollback. *)
  let unborn =
    let rec go i =
      let t = Printf.sprintf "u%d" i in
      if Shard_map.owner map ~tenant:t = "me" then t else go (i + 1)
    in
    go 0
  in
  let r = Authority.handle auth (get ("/signatures?tenant=" ^ unborn ^ "&since=0")) in
  Alcotest.(check int) "owned but not adopted is retryable" 503
    r.Http.Response.status;
  Alcotest.(check (option string)) "retry hinted" (Some "1")
    (header r "Retry-After")

let test_export_adopt_release () =
  let a = Authority.create () and b = Authority.create () in
  ignore (Authority.publish a ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish a ~tenant:"t0" [ s1; s2 ]);
  (* A candidate one reporter short of promotion travels with the tenant. *)
  let c = candidate [ "cand"; "imsi=240080000000002" ] in
  (match Authority.report_candidate a ~tenant:"t0" ~reporter:"r1" c with
  | Authority.Accepted 1 -> ()
  | o -> Alcotest.failf "report: %s" (Authority.candidate_outcome_to_string o));
  (match Authority.report_candidate a ~tenant:"t0" ~reporter:"r2" c with
  | Authority.Accepted 2 -> ()
  | o -> Alcotest.failf "report: %s" (Authority.candidate_outcome_to_string o));
  let payload =
    match Authority.export_tenant a ~tenant:"t0" with
    | Ok p -> p
    | Error e -> Alcotest.failf "export: %s" e
  in
  (match Authority.adopt_tenant b payload with
  | Ok t -> Alcotest.(check string) "tenant name returned" "t0" t
  | Error e -> Alcotest.failf "adopt: %s" e);
  Alcotest.(check int) "version preserved across the handoff" 2
    (Authority.version b ~tenant:"t0");
  check_set "set preserved" [ s1; s2 ] (Authority.signatures b ~tenant:"t0");
  Alcotest.(check int) "checksum preserved"
    (Authority.checksum a ~tenant:"t0")
    (Authority.checksum b ~tenant:"t0");
  (* The new owner continues the committed version line, not a fresh one. *)
  ignore (Authority.publish b ~tenant:"t0" [ s1; s2; s3 ]);
  Alcotest.(check int) "monotonic across migration" 3
    (Authority.version b ~tenant:"t0");
  (* The travelled tally finishes promotion on the new owner. *)
  (match Authority.report_candidate b ~tenant:"t0" ~reporter:"r3" c with
  | Authority.Promoted _ -> ()
  | o ->
    Alcotest.failf "k-th reporter on the new owner: %s"
      (Authority.candidate_outcome_to_string o));
  (match Authority.release_tenant a ~tenant:"t0" with
  | Ok v -> Alcotest.(check int) "released at its head" 2 v
  | Error e -> Alcotest.failf "release: %s" e);
  Alcotest.(check int) "released tenant gone" 0 (Authority.version a ~tenant:"t0");
  (match Authority.release_tenant a ~tenant:"t0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double release must error");
  (* Adopting a payload older than local state is refused. *)
  match Authority.adopt_tenant b payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale adopt must be refused"

let test_shard_state_replays () =
  with_dir (fun dir ->
      let map = mk_map ~epoch:5 [ "me"; "other" ] in
      let src = Authority.create () in
      ignore (Authority.publish src ~tenant:"mig" [ s1 ]);
      ignore (Authority.publish src ~tenant:"mig" [ s1; s2 ]);
      let payload =
        match Authority.export_tenant src ~tenant:"mig" with
        | Ok p -> p
        | Error e -> Alcotest.failf "export: %s" e
      in
      let auth, _ = reopen ~dir in
      Authority.set_shard auth ~self:"me" map;
      (match Authority.adopt_tenant auth payload with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "adopt: %s" e);
      Authority.close auth;
      (* Both the shard assignment and the adopted tenant ride the WAL. *)
      let auth, _ = reopen ~dir in
      (match Authority.shard auth with
      | Some (self, m) ->
        Alcotest.(check string) "self replayed" "me" self;
        Alcotest.(check int) "epoch replayed" 5 (Shard_map.epoch m)
      | None -> Alcotest.fail "shard map must survive reopen");
      Alcotest.(check int) "adopted version replayed" 2
        (Authority.version auth ~tenant:"mig");
      check_set "adopted set replayed" [ s1; s2 ]
        (Authority.signatures auth ~tenant:"mig");
      (* Compaction folds the snapshot but re-journals the assignment. *)
      Authority.compact auth;
      Authority.close auth;
      let auth, _ = reopen ~dir in
      (match Authority.shard auth with
      | Some (self, m) ->
        Alcotest.(check string) "self survives compaction" "me" self;
        Alcotest.(check int) "epoch survives compaction" 5 (Shard_map.epoch m)
      | None -> Alcotest.fail "shard map must survive compaction");
      Alcotest.(check int) "tenant survives compaction" 2
        (Authority.version auth ~tenant:"mig");
      Authority.close auth)

(* --- relay: fail-static serving, staleness, forwarding --- *)

let test_relay_serves_and_fail_static () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  (* Before any verified sync the relay refuses to serve: a 503, never an
     empty set that reads as a rollback. *)
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=0") in
  Alcotest.(check int) "unsynced relay refuses" 503 r.Http.Response.status;
  Alcotest.(check (option string)) "retry hinted" (Some "1") (header r "Retry-After");
  let r = Relay.handle relay (get "/signatures?tenant=nope&since=0") in
  Alcotest.(check int) "unconfigured tenant" 404 r.Http.Response.status;
  (* One verified sync and it serves the origin's bytes. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "relay sync must land on v1");
  let c = new_client "t0" in
  ignore (sync_updated "client via relay" c (Relay.wire_transport relay));
  check_set "relay-served set" [ s1 ] (Delta_client.signatures c);
  Alcotest.(check int) "checksums agree through the relay"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c);
  (* The origin moves on; the relay is partitioned: it keeps serving the
     last verified version, advertising how stale it is. *)
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(fun _ -> Error "partitioned"))
       .Signature_client.outcome
   with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "partitioned sync must fail");
  Alcotest.(check int) "staleness counted" 1 (Relay.staleness relay ~tenant:"t0");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=0") in
  Alcotest.(check int) "fail-static still serves" 200 r.Http.Response.status;
  Alcotest.(check (option string)) "staleness advertised" (Some "1")
    (header r "X-Relay-Staleness");
  Alcotest.(check (option string)) "relay identifies itself" (Some "r0")
    (header r "X-Relay-Id");
  Alcotest.(check (option string)) "old version, honestly" (Some "1")
    (header r "X-Signature-Version");
  (* Partition heals: catch up, staleness resets, clients get the delta. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | _ -> Alcotest.fail "healed sync must land on v2");
  Alcotest.(check int) "staleness reset" 0 (Relay.staleness relay ~tenant:"t0");
  ignore (sync_updated "client catches up via relay" c (Relay.wire_transport relay));
  check_set "delta through the mirror" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "served as a delta, not a snapshot" 2
    k.Delta_client.delta_updates

let test_relay_forwards_candidates () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  let body = lines [ candidate [ "cand"; "imsi=240080000000003" ] ] in
  (* No upstream configured: reports are refused retryably, not dropped. *)
  let r = Relay.handle relay (post "/candidates?tenant=t0&reporter=r1" body) in
  Alcotest.(check int) "no upstream is 503" 503 r.Http.Response.status;
  Relay.set_upstream relay (loss_free auth);
  let r = Relay.handle relay (post "/candidates?tenant=t0&reporter=r1" body) in
  Alcotest.(check int) "forwarded upstream" 200 r.Http.Response.status;
  Alcotest.(check int) "candidate landed on the origin" 1
    (Authority.pending_candidates auth ~tenant:"t0");
  let k = Relay.counters relay in
  Alcotest.(check int) "forward counted" 1 k.Relay.forwarded;
  Alcotest.(check int) "failure counted" 1 k.Relay.forward_failures

let test_relay_fork_repair () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
  let relay =
    Relay.create
      ~config:{ Relay.compact_keep = 64; digest_interval = 1 }
      ~id:"r0" ~tenants:[ "t0" ] ()
  in
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 3 -> ()
  | _ -> Alcotest.fail "relay sync must land on v3");
  Alcotest.(check bool) "consistent after sync" true
    (Relay.consistent relay ~tenant:"t0");
  let r = Relay.handle relay (get "/digest?tenant=t0&since=0&interval=1") in
  Alcotest.(check int) "digest served" 200 r.Http.Response.status;
  Alcotest.(check (option string)) "digest mode" (Some "digest")
    (header r "X-Signature-Mode");
  (* Fork the mirror: the serving guard must trip on both endpoints. *)
  Relay.inject_fork relay ~tenant:"t0";
  Alcotest.(check bool) "fork detected" false
    (Relay.consistent relay ~tenant:"t0");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=0") in
  Alcotest.(check int) "diverged mirror refuses" 503 r.Http.Response.status;
  let r = Relay.handle relay (get "/digest?tenant=t0&since=0&interval=1") in
  Alcotest.(check int) "diverged digest refuses too" 503 r.Http.Response.status;
  (* The origin is idle, so the next sync is a verified 304 — which must
     still notice the divergence and heal it by ranged repair, never a
     rebuild: the prefix up to head - 1 is intact. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Unchanged -> ()
  | _ -> Alcotest.fail "idle origin must answer 304");
  Alcotest.(check bool) "consistent again" true
    (Relay.consistent relay ~tenant:"t0");
  let k = Relay.counters relay in
  Alcotest.(check int) "healed by ranged repair" 1 k.Relay.repairs;
  Alcotest.(check int) "no resnapshot" 0 k.Relay.resnapshots;
  Alcotest.(check bool) "repair bytes accounted" true (k.Relay.repair_bytes > 0);
  Alcotest.(check bool) "refusals counted" true
    (k.Relay.served_inconsistent >= 2);
  let c = new_client "t0" in
  ignore (sync_updated "client after repair" c (Relay.wire_transport relay));
  check_set "repaired mirror serves the true set" [ s1; s2; s3 ]
    (Delta_client.signatures c);
  (* Fork again with the origin moving underneath: the delta-absorb
     mismatch takes the same repair path. *)
  ignore (Authority.publish auth ~tenant:"t0" [ s2; s3 ]);
  Relay.inject_fork relay ~tenant:"t0";
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 4 -> ()
  | _ -> Alcotest.fail "sync must land on v4");
  let k = Relay.counters relay in
  Alcotest.(check int) "second fork also repaired" 2 k.Relay.repairs;
  Alcotest.(check int) "still no resnapshot" 0 k.Relay.resnapshots;
  ignore (sync_updated "client follows" c (Relay.wire_transport relay));
  check_set "post-retire set through the mirror" [ s2; s3 ]
    (Delta_client.signatures c)

let test_relay_gossip_catchup () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let ra = Relay.create ~id:"ra" ~tenants:[ "t0" ] () in
  let rb = Relay.create ~id:"rb" ~tenants:[ "t0" ] () in
  List.iter
    (fun r ->
      match
        (Relay.sync_tenant r ~tenant:"t0" ~transport:(loss_free auth))
          .Signature_client.outcome
      with
      | Signature_client.Updated 1 -> ()
      | _ -> Alcotest.fail "both relays must sync to v1")
    [ ra; rb ];
  (* The origin advances; only ra sees it before rb is partitioned. *)
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (match
     (Relay.sync_tenant ra ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | _ -> Alcotest.fail "ra must reach v2");
  Relay.set_peers rb
    [ ("ra", Relay.wire_transport ra);
      ("rb", fun _ -> Alcotest.fail "an entry matching self must be dropped") ];
  (* Gossip with the origin unreachable: rb catches up from its sibling
     through the full verification ladder. *)
  let origin_dead ~tenant:_ _ = Error "origin partitioned" in
  Relay.gossip rb ~upstream:origin_dead;
  Alcotest.(check int) "rb caught up sideways" 2 (Relay.version rb ~tenant:"t0");
  Alcotest.(check bool) "rb consistent" true (Relay.consistent rb ~tenant:"t0");
  let k = Relay.counters rb in
  Alcotest.(check int) "catch-up counted" 1 k.Relay.gossip_catchups;
  Alcotest.(check int) "round counted" 1 k.Relay.gossip_rounds;
  let c = new_client "t0" in
  ignore (sync_updated "client via the caught-up relay" c (Relay.wire_transport rb));
  check_set "sibling-sourced set" [ s1; s2 ] (Delta_client.signatures c);
  Alcotest.(check int) "checksums agree end to end"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c);
  (* Nothing fresher anywhere: the next round moves nothing. *)
  Relay.gossip rb ~upstream:origin_dead;
  let k = Relay.counters rb in
  Alcotest.(check int) "no-op round" 1 k.Relay.gossip_catchups;
  Alcotest.(check int) "but still counted" 2 k.Relay.gossip_rounds

let test_relay_version_age_and_metrics () =
  let obs = Leakdetect_obs.Obs.create () in
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~obs ~id:"r0" ~tenants:[ "t0" ] () in
  Relay.set_clock relay 3;
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "sync must land");
  Relay.set_clock relay 10;
  Alcotest.(check int) "version age tracks the clock" 7
    (Relay.version_age relay ~tenant:"t0");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check int) "up to date" 304 r.Http.Response.status;
  Alcotest.(check (option string)) "age advertised" (Some "7")
    (header r "X-Relay-Version-Age");
  Alcotest.(check (option string)) "fresh upstream" (Some "0")
    (header r "X-Relay-Staleness");
  (* A failed sync bumps staleness (transport health) but version age
     keeps measuring the clock alone. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(fun _ -> Error "down"))
       .Signature_client.outcome
   with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "dead transport must fail");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check (option string)) "staleness bumped" (Some "1")
    (header r "X-Relay-Staleness");
  Alcotest.(check (option string)) "age unchanged" (Some "7")
    (header r "X-Relay-Version-Age");
  let m = Relay.handle relay (get "/metrics") in
  Alcotest.(check int) "metrics served" 200 m.Http.Response.status;
  let contains body needle =
    let n = String.length body and m = String.length needle in
    let rec go i =
      i + m <= n && (String.sub body i m = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " exported") true
        (contains m.Http.Response.body family))
    [ "leakdetect_relay_staleness";
      "leakdetect_relay_version_age";
      "leakdetect_relay_version";
      "leakdetect_relay_sync_rounds";
      "leakdetect_relay_gossip_rounds";
      "leakdetect_relay_repairs";
      "leakdetect_relay_resnapshots";
      "leakdetect_relay_served_inconsistent" ]

(* --- sync_via: escalation ladder and relay failover --- *)

let test_sync_via_escalates_past_byzantine_relay () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (* Every relay serves corrupted bytes: flip a character inside the
     payload, leaving the frame parseable so only verification catches it. *)
  let corrupting raw =
    match loss_free auth raw with
    | Error _ as e -> e
    | Ok response -> (
      let find_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          if i + m > n then None
          else if String.sub s i m = sub then Some i
          else go (i + 1)
        in
        go 0
      in
      match find_sub response "imei" with
      | None -> Ok response
      | Some i ->
        let b = Bytes.of_string response in
        Bytes.set b (i + 2) 'X';
        Ok (Bytes.to_string b))
  in
  let origin_calls = ref 0 in
  let origin raw =
    incr origin_calls;
    loss_free auth raw
  in
  let c = new_client "t0" in
  (match
     (Delta_client.sync_via c ~relays:[ corrupting; corrupting ] ~origin)
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | Signature_client.Failed e -> Alcotest.failf "escalation failed: %s" e
  | _ -> Alcotest.fail "must install the head, not skip");
  Alcotest.(check bool) "origin reached" true (!origin_calls > 0);
  check_set "true set installed despite the byzantine tier" [ s1; s2 ]
    (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check bool) "escalation counted" true (k.Delta_client.escalations > 0)

let test_sync_via_rotates_past_dead_relay () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~id:"r1" ~tenants:[ "t0" ] () in
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "relay must sync");
  let dead _ = Error "connection refused" in
  let c = new_client "t0" in
  (* The preferred relay is dead; the next attempt rotates to the live
     sibling without ever touching the origin. *)
  let origin _ = Alcotest.fail "origin must not be needed for a dead relay" in
  (match
     (Delta_client.sync_via c ~relays:[ dead; Relay.wire_transport relay ] ~origin)
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "failover sync must land");
  check_set "served by the live relay" [ s1 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "no escalation for a mere dead relay" 0
    k.Delta_client.escalations

let test_sync_via_without_relays () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let direct = new_client "t0" and via = new_client "t0" in
  ignore (Delta_client.sync direct ~transport:(loss_free auth));
  (match
     (Delta_client.sync_via via ~relays:[] ~origin:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | _ -> Alcotest.fail "a relay-less sync must land on the head");
  Alcotest.(check int) "same version" (Delta_client.version direct)
    (Delta_client.version via);
  Alcotest.(check int) "same checksum" (Delta_client.checksum direct)
    (Delta_client.checksum via);
  Alcotest.(check int) "no escalation" 0
    (Delta_client.counters via).Delta_client.escalations

(* --- mini topology soak: the full tier end to end --- *)

let test_mini_topology () =
  with_dir (fun dir ->
      let config =
        {
          Topology.default_config with
          Topology.clients = 40;
          tenants = 3;
          ticks = 400;
          sync_period = 16;
          publishes = 12;
          candidates = 2;
          partitions = 2;
          partition_ticks = 50;
          relay_crashes = 1;
          epoch_flips = 1;
          min_offload = 0.5;
          drain_rounds = 40;
          seed = 11;
        }
      in
      let report = Topology.run ~dir config in
      check_soak_ok report;
      Alcotest.(check int) "the epoch flipped" 1 report.Topology.epoch_flips_done;
      Alcotest.(check int) "partitions ran" 2 report.Topology.partitions_done;
      Alcotest.(check int) "the relay crashed" 1 report.Topology.relay_crashes_done;
      Alcotest.(check bool) "relays carried most of the load" true
        (report.Topology.offload > 0.5))

let suite =
  [ ( "distrib.changelog",
      [ Alcotest.test_case "ops" `Quick test_changelog_ops;
        Alcotest.test_case "since + compact" `Quick
          test_changelog_since_and_compact;
        Alcotest.test_case "entry codec" `Quick test_changelog_codec;
        Alcotest.test_case "restore rejects gaps" `Quick
          test_changelog_restore_rejects_gaps;
        Alcotest.test_case "compact keep:0 boundary" `Quick
          test_changelog_compact_keep_zero;
        Alcotest.test_case "ranged digest" `Quick test_changelog_digest;
        qtest prop_delta_equals_snapshot;
        qtest prop_compact_since_boundary;
        qtest prop_cached_head_checksums ] );
    ( "distrib.shard_map",
      [ Alcotest.test_case "validation + stability" `Quick test_shard_map_basics;
        Alcotest.test_case "line codec" `Quick test_shard_map_codec;
        Alcotest.test_case "weights + proximity edges" `Quick
          test_shard_map_edges;
        qtest prop_shard_map_minimal_disruption ] );
    ( "distrib.authority",
      [ Alcotest.test_case "http statuses" `Quick test_authority_http_statuses;
        Alcotest.test_case "snapshot below horizon" `Quick
          test_authority_snapshot_below_horizon;
        Alcotest.test_case "promotion at k" `Quick test_promotion_at_k;
        Alcotest.test_case "reporter cap" `Quick test_reporter_cap;
        Alcotest.test_case "candidates tally" `Quick
          test_candidates_endpoint_tally ] );
    ( "distrib.durability",
      [ Alcotest.test_case "reopen replays" `Quick test_authority_reopen;
        Alcotest.test_case "publish crash-point sweep" `Quick
          test_publish_crash_point_sweep;
        Alcotest.test_case "compaction crash windows" `Quick
          test_compaction_crash_windows;
        Alcotest.test_case "promotion crash recovers" `Quick
          test_promotion_crash_recovers;
        Alcotest.test_case "torn journal tail" `Quick test_torn_journal_tail ] );
    (* Named for the [leakdetect store] view of the authority journal. *)
    ( "store.store",
      [ Alcotest.test_case "entry codec" `Quick test_store_journal_codec;
        Alcotest.test_case "apply idempotent" `Quick test_store_replay_idempotent;
        Alcotest.test_case "compact + reopen" `Quick test_store_compact_reopen;
        Alcotest.test_case "corrupt snapshot falls back" `Quick
          test_store_corrupt_snapshot_falls_back;
        Alcotest.test_case "torn tail truncated" `Quick
          test_store_torn_tail_truncated;
        Alcotest.test_case "restore endpoints" `Quick test_store_restore_endpoints;
        qtest prop_rate0_log_identity ] );
    ( "distrib.delta_client",
      [ Alcotest.test_case "happy path" `Quick test_delta_client_happy_path;
        Alcotest.test_case "horizon gap falls back" `Quick
          test_delta_client_gap_forces_full;
        Alcotest.test_case "corrupt body falls back" `Quick
          test_delta_client_rejects_corrupt_body;
        Alcotest.test_case "regression refused" `Quick
          test_delta_client_refuses_regression;
        Alcotest.test_case "304 fork smell" `Quick
          test_delta_client_304_fork_smell;
        Alcotest.test_case "escalates past byzantine relays" `Quick
          test_sync_via_escalates_past_byzantine_relay;
        Alcotest.test_case "rotates past a dead relay" `Quick
          test_sync_via_rotates_past_dead_relay;
        Alcotest.test_case "no relays is a plain sync" `Quick
          test_sync_via_without_relays ] );
    ( "distrib.sharding",
      [ Alcotest.test_case "shard gate" `Quick test_authority_shard_gate;
        Alcotest.test_case "export / adopt / release" `Quick
          test_export_adopt_release;
        Alcotest.test_case "shard state replays" `Quick
          test_shard_state_replays ] );
    ( "distrib.relay",
      [ Alcotest.test_case "serves + fail-static" `Quick
          test_relay_serves_and_fail_static;
        Alcotest.test_case "forwards candidates" `Quick
          test_relay_forwards_candidates;
        Alcotest.test_case "fork heals by ranged repair" `Quick
          test_relay_fork_repair;
        Alcotest.test_case "gossip catch-up from a sibling" `Quick
          test_relay_gossip_catchup;
        Alcotest.test_case "version age + metrics" `Quick
          test_relay_version_age_and_metrics ] );
    ( "distrib.soak",
      [ Alcotest.test_case "mini soak" `Quick test_mini_soak;
        Alcotest.test_case "single origin deterministic" `Quick
          test_single_origin_deterministic;
        Alcotest.test_case "rejects nonsense" `Quick
          test_topology_rejects_nonsense;
        Alcotest.test_case "mini topology" `Quick test_mini_topology ] ) ]
