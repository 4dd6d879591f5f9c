module Http = Leakdetect_http
module Url = Leakdetect_net.Url
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Leak_error = Leakdetect_util.Leak_error
module Crc32 = Leakdetect_util.Crc32
module Obs = Leakdetect_obs.Obs

let id_ok s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = ':' || c = '-')
       s

let signatures_endpoint = "/signatures"
let digest_endpoint = "/digest"
let candidates_endpoint = "/candidates"
let metrics_endpoint = "/metrics"
let default_digest_interval = 8

let version_header = "X-Signature-Version"
let checksum_header = "X-Signature-Checksum"
let mode_header = "X-Signature-Mode"
let tsv = ("Content-Type", "text/tab-separated-values")

(* --- line-list bodies --- *)

let parse_lines of_line lines =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match of_line line with
      | Ok x -> loop (x :: acc) rest
      | Error _ as e -> e)
  in
  loop [] lines

let parse_body of_line body =
  parse_lines of_line (if body = "" then [] else String.split_on_char '\n' body)

let signature_of_line line =
  Result.map_error
    (fun e -> "bad signature line: " ^ Leak_error.to_string e)
    (Signature_io.of_line line)

let entry_of_line line =
  Result.map_error (fun e -> "bad delta line: " ^ e) (Changelog.entry_of_line line)

let signatures_body set = String.concat "\n" (List.map Signature_io.to_line set)

(* --- server half --- *)

type request =
  | Signatures of { tenant : string; since : int; full : bool }
  | Digest of { tenant : string; since : int; interval : int }
  | Candidates
  | Metrics

let route (request : Http.Request.t) =
  let path, _ = Url.split_path_query request.Http.Request.target in
  let params = Http.Request.query_params request in
  let allow meth answer =
    if request.Http.Request.meth <> meth then
      Error
        (Http.Response.make
           ~headers:
             (Http.Headers.of_list [ ("Allow", Http.Request.meth_to_string meth) ])
           405)
    else answer ()
  in
  let tenant () =
    match List.assoc_opt "tenant" params with
    | Some tenant when id_ok tenant -> Some tenant
    | _ -> None
  in
  let int_param name ~default =
    match List.assoc_opt name params with
    | Some v -> int_of_string_opt v
    | None -> Some default
  in
  if path = signatures_endpoint then
    allow Http.Request.GET (fun () ->
        match (tenant (), int_param "since" ~default:0) with
        | Some tenant, Some since when since >= 0 ->
          let full = List.assoc_opt "full" params = Some "1" in
          Ok (Signatures { tenant; since; full })
        | _ -> Error (Http.Response.make 400))
  else if path = digest_endpoint then
    allow Http.Request.GET (fun () ->
        match
          ( tenant (),
            int_param "since" ~default:0,
            int_param "interval" ~default:default_digest_interval )
        with
        | Some tenant, Some since, Some interval when since >= 0 && interval >= 1
          ->
          Ok (Digest { tenant; since; interval })
        | _ -> Error (Http.Response.make 400))
  else if path = candidates_endpoint then
    allow Http.Request.POST (fun () -> Ok Candidates)
  else if path = metrics_endpoint then allow Http.Request.GET (fun () -> Ok Metrics)
  else Error (Http.Response.make 404)

let candidate_ids request =
  let params = Http.Request.query_params request in
  match (List.assoc_opt "tenant" params, List.assoc_opt "reporter" params) with
  | Some tenant, Some reporter when id_ok tenant && id_ok reporter ->
    Ok (tenant, reporter)
  | _ -> Error (Http.Response.make 400)

let version_headers log =
  let version = Changelog.version log in
  [ (version_header, string_of_int version);
    ( checksum_header,
      Crc32.to_hex (Changelog.wire_checksum ~version (Changelog.current log)) ) ]

type mode = Not_modified | Delta | Snapshot

let serve_signatures ?(headers = []) log ~since ~full =
  let answer ?body mode_headers code =
    Http.Response.make
      ~headers:(Http.Headers.of_list (version_headers log @ headers @ mode_headers))
      ?body code
  in
  if since >= Changelog.version log && not full then (Not_modified, answer [] 304)
  else
    match if full then None else Changelog.since log since with
    | Some entries ->
      ( Delta,
        answer
          ~body:(String.concat "\n" (List.map Changelog.entry_to_line entries))
          [ (mode_header, "delta"); ("X-Signature-Since", string_of_int since); tsv ]
          200 )
    | None ->
      ( Snapshot,
        answer
          ~body:(signatures_body (Changelog.current log))
          [ (mode_header, "snapshot"); tsv ]
          200 )

let serve_digest ?(headers = []) log ~since ~interval =
  Http.Response.make
    ~headers:
      (Http.Headers.of_list
         (version_headers log @ headers @ [ (mode_header, "digest"); tsv ]))
    ~body:(Changelog.digest_to_body (Changelog.digest log ~since ~interval))
    200

let serve_metrics obs =
  Http.Response.make
    ~headers:
      (Http.Headers.of_list
         [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ])
    ~body:(Obs.to_prometheus obs) 200

type tally = { accepted : int; duplicate : int; promoted : int; capped : int }

let tally_response ~version t =
  Http.Response.make
    ~headers:(Http.Headers.of_list [ (version_header, string_of_int version); tsv ])
    ~body:
      (Printf.sprintf "accepted\t%d\nduplicate\t%d\npromoted\t%d\ncapped\t%d"
         t.accepted t.duplicate t.promoted t.capped)
    200

let tally_of_body body =
  (* Newest first, so a repeated key reads its last value. *)
  let rec pairs acc = function
    | [] -> Some acc
    | line :: rest -> (
      match String.split_on_char '\t' line with
      | [ key; n ] -> (
        match int_of_string_opt n with
        | Some n -> pairs ((key, n) :: acc) rest
        | None -> None)
      | _ -> None)
  in
  match pairs [] (String.split_on_char '\n' body) with
  | None -> Error "bad tally body"
  | Some pairs ->
    let get key = Option.value ~default:0 (List.assoc_opt key pairs) in
    Ok
      {
        accepted = get "accepted";
        duplicate = get "duplicate";
        promoted = get "promoted";
        capped = get "capped";
      }

let wire_transport handle raw =
  match Http.Wire.parse raw with
  | Error e -> Error ("request corrupt: " ^ Http.Wire.error_to_string e)
  | Ok request -> Ok (Http.Response.print (handle request))

(* --- client half --- *)

type transport = string -> (string, string) result

let signatures_target ~tenant ~since ~full =
  Printf.sprintf "%s?tenant=%s&since=%d%s" signatures_endpoint tenant since
    (if full then "&full=1" else "")

let digest_target ~tenant ~since ~interval =
  Printf.sprintf "%s?tenant=%s&since=%d&interval=%d" digest_endpoint tenant since
    interval

let exchange ~host transport ?body meth target =
  let request =
    Http.Request.make
      ~headers:(Http.Headers.of_list [ ("Host", host) ])
      ?body meth target
  in
  match transport (Http.Wire.print request) with
  | Error _ as e -> e
  | Ok raw -> (
    match Http.Response.parse raw with
    | Error e -> Error ("response corrupt: " ^ Http.Wire.error_to_string e)
    | Ok response -> (
      let body = response.Http.Response.body in
      match
        Option.bind
          (Http.Headers.get response.Http.Response.headers "Content-Length")
          int_of_string_opt
      with
      | Some n when n <> String.length body ->
        Error
          (Printf.sprintf "content-length mismatch: declared %d, got %d" n
             (String.length body))
      | _ -> Ok (raw, response)))

let header (response : Http.Response.t) name =
  Http.Headers.get response.Http.Response.headers name

let version response = Option.bind (header response version_header) int_of_string_opt

let checksum response =
  Option.bind (header response checksum_header) (fun hex ->
      int_of_string_opt ("0x" ^ hex))

let mode response = header response mode_header

let expect_200 (response : Http.Response.t) =
  if response.Http.Response.status = 200 then Ok ()
  else Error (Printf.sprintf "status %d" response.Http.Response.status)

let fetch_digest ~host transport ~tenant ~since ~interval =
  let ( let* ) = Result.bind in
  let* raw, response =
    exchange ~host transport Http.Request.GET
      (digest_target ~tenant ~since ~interval)
  in
  let* () = expect_200 response in
  let* checkpoints = Changelog.digest_of_body response.Http.Response.body in
  Ok (raw, checkpoints)

let post_candidates ~host transport ~tenant ~reporter sigs =
  let ( let* ) = Result.bind in
  let* _, response =
    exchange ~host transport ~body:(signatures_body sigs) Http.Request.POST
      (Printf.sprintf "%s?tenant=%s&reporter=%s" candidates_endpoint tenant
         reporter)
  in
  let* () = expect_200 response in
  tally_of_body response.Http.Response.body
