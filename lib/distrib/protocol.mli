(** The delta-sync wire protocol: the one module that knows how
    signatures travel between the {!Authority}, the {!Relay} tier and the
    {!Delta_client}s on devices (the generation-server-to-device hand-off
    of the paper's Fig. 3).

    {v
    endpoint     method  params                              answers
    /signatures  GET     tenant, since=0, full=1             200 delta | 200 snapshot | 304
    /digest      GET     tenant, since=0, interval=8         200 digest
    /candidates  POST    tenant, reporter; signature lines   200 tally
    /metrics     GET     -                                   200 Prometheus text
    v}

    Every server answers an unknown path with [404], a wrong method with
    [405] and an [Allow] header, and a missing or malformed parameter
    with [400] ({!route}).  Every [/signatures] and [/digest] answer
    carries [X-Signature-Version] and [X-Signature-Checksum] — the
    {!Changelog.wire_checksum} of the served set, bound to the version —
    so a client can verify what it lands on.  Bodies are line lists:
    {!Leakdetect_core.Signature_io} lines for snapshots and candidate
    reports, {!Changelog.entry_to_line} lines for deltas,
    {!Changelog.digest_to_body} checkpoints for digests.

    What a server does around the protocol (the authority's shard gate
    and metrics, the relay's serving guard and [X-Relay-*] headers) stays
    in that server. *)

module Signature = Leakdetect_core.Signature

val id_ok : string -> bool
(** Valid tenant, reporter or node id: 1 to 64 characters from
    [A-Za-z0-9._:-], so ids embed safely in query strings and journal
    lines. *)

(** {1 Endpoints} *)

val signatures_endpoint : string
(** ["/signatures"] *)

val digest_endpoint : string
(** ["/digest"] *)

val candidates_endpoint : string
(** ["/candidates"] *)

val metrics_endpoint : string
(** ["/metrics"] *)

val default_digest_interval : int
(** [8]: the checkpoint stride a [/digest] request without [interval]
    gets. *)

(** {1 Server half} *)

type request =
  | Signatures of { tenant : string; since : int; full : bool }
  | Digest of { tenant : string; since : int; interval : int }
  | Candidates
      (** The ids are read by {!candidate_ids}: a relay forwards the
          request verbatim and leaves them to the origin. *)
  | Metrics

val route : Leakdetect_http.Request.t -> (request, Leakdetect_http.Response.t) result
(** Dispatch on path and method and parse the query.  [Error] carries the
    answer: [404] for an unknown path, [405] with [Allow] for the wrong
    method, [400] for a missing or bad [tenant], a [since] that is not a
    non-negative integer, or an [interval] below 1. *)

val candidate_ids :
  Leakdetect_http.Request.t -> (string * string, Leakdetect_http.Response.t) result
(** [(tenant, reporter)] of a [POST /candidates]; [Error] is the [400]. *)

type mode = Not_modified | Delta | Snapshot

val serve_signatures :
  ?headers:(string * string) list ->
  Changelog.t ->
  since:int ->
  full:bool ->
  mode * Leakdetect_http.Response.t
(** Answer [GET /signatures] from a changelog: [304] when [since] is at
    or past the head (unless [full]), the entry suffix newer than [since]
    when the changelog still holds it ([X-Signature-Mode: delta],
    [X-Signature-Since] echoing [since]), else the full set
    ([X-Signature-Mode: snapshot]).  [headers] are placed between the
    version headers and the mode headers. *)

val serve_digest :
  ?headers:(string * string) list ->
  Changelog.t ->
  since:int ->
  interval:int ->
  Leakdetect_http.Response.t
(** Answer [GET /digest]: the {!Changelog.digest} checkpoints as the body
    ([X-Signature-Mode: digest]), headers laid out as in
    {!serve_signatures}. *)

val serve_metrics : Leakdetect_obs.Obs.t -> Leakdetect_http.Response.t
(** Answer [GET /metrics]: the registry's Prometheus exposition. *)

type tally = { accepted : int; duplicate : int; promoted : int; capped : int }
(** Outcome counts of one [POST /candidates] body. *)

val tally_response : version:int -> tally -> Leakdetect_http.Response.t
(** The [200] answer to [POST /candidates]: [X-Signature-Version] and one
    [outcome TAB count] line per outcome. *)

val wire_transport :
  (Leakdetect_http.Request.t -> Leakdetect_http.Response.t) ->
  string ->
  (string, string) result
(** Parse printed request bytes, answer them with the handler, print the
    response: a loss-free transport that fault plans wrap. *)

(** {1 Client half} *)

type transport = string -> (string, string) result
(** Printed request bytes in, printed response bytes out. *)

val signatures_target : tenant:string -> since:int -> full:bool -> string
(** [/signatures?tenant=T&since=V], plus [&full=1] when [full]. *)

val exchange :
  host:string ->
  transport ->
  ?body:string ->
  Leakdetect_http.Request.meth ->
  string ->
  (string * Leakdetect_http.Response.t, string) result
(** Send one request with the given [Host] header and return the raw
    response bytes and the parsed response.  [Error] when the transport
    fails, the response does not parse, or its body length disagrees
    with its [Content-Length]. *)

val version : Leakdetect_http.Response.t -> int option
(** [X-Signature-Version]. *)

val checksum : Leakdetect_http.Response.t -> int option
(** [X-Signature-Checksum], decoded. *)

val mode : Leakdetect_http.Response.t -> string option
(** [X-Signature-Mode]: ["delta"], ["snapshot"] or ["digest"] from an
    honest server. *)

val fetch_digest :
  host:string ->
  transport ->
  tenant:string ->
  since:int ->
  interval:int ->
  (string * (int * int) list, string) result
(** [GET /digest]: the raw response and its checkpoints.  [Error] on any
    {!exchange} failure, a non-[200] status or a malformed body. *)

val post_candidates :
  host:string ->
  transport ->
  tenant:string ->
  reporter:string ->
  Signature.t list ->
  (tally, string) result
(** [POST /candidates] with the signatures as lines.  [Error] on any
    {!exchange} failure, a non-[200] status or a tally body with a line
    that is not [key TAB integer]; unknown keys are ignored and missing
    ones read as 0. *)

(** {1 Line-list bodies} *)

val parse_lines :
  (string -> ('a, string) result) -> string list -> ('a list, string) result
(** Decode every line in order, stopping at the first error. *)

val parse_body :
  (string -> ('a, string) result) -> string -> ('a list, string) result
(** {!parse_lines} over a newline-separated body; the empty body is the
    empty list. *)

val signature_of_line : string -> (Signature.t, string) result
val entry_of_line : string -> (Changelog.entry, string) result
(** Line decoders with the error prefixed by what the line should have
    been. *)

val signatures_body : Signature.t list -> string
(** Signature lines joined with newlines, in the given order. *)
