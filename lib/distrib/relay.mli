(** A read-path relay: the fan-out tier between origins and clients.

    A relay keeps, per tenant, a {!Delta_client} (the same verified sync
    machinery devices use — checksum binding, gap detection, regression
    refusal, retry/backoff) plus a {!Changelog} mirror rebuilt from the
    verified entry suffixes the client applied.  It re-serves
    [GET /signatures] and [GET /digest] from that mirror through the same
    {!Protocol} functions an origin uses, so a device cannot tell a relay
    from an origin — except by the relay's own parts below: the serving
    guard, the relay headers, [404] for a tenant it does not carry, and
    candidate forwarding.

    {b Serving guard.}  Every tenant response is gated twice: [503]
    until the tenant's first verified sync (never serve unverified or
    empty state a synced client would read as a regression), and [503]
    whenever the mirror head no longer sits exactly on the verified
    client state — same version, same canonical-set checksum, checked in
    O(1) against the mirror's cached sums.  A forked or corrupted mirror
    therefore stops being served the moment it diverges, counted in
    {!counters}[.served_inconsistent].

    {b Self-healing.}  Divergence is healed cheapest-first:
    - {e ranged anti-entropy repair}: fetch the checkpoint digest
      ([GET /digest], see {!Changelog.digest}) from the origin or a
      verified sibling, find the newest checkpoint the mirror still
      agrees with, re-fetch only the suffix past it and splice.  The
      splice is accepted only if the rebuilt mirror lands exactly on the
      locally verified client state, so a byzantine repair source can
      never poison the mirror — {!counters}[.repairs],
      [.repair_bytes];
    - {e resnapshot}: rebuild the mirror as a fold of the verified set —
      the last resort, when no checkpoint agrees (divergence below the
      horizon) or the splice fails verification —
      {!counters}[.resnapshots], [.resnapshot_bytes] (the canonical
      body length, i.e. the wire cost a full resync pays).

    {b Gossip.}  When the origin is partitioned away the relay no longer
    fails static: {!gossip} probes sibling relays ({!set_peers}) with
    head-only digests and catches up from the freshest one — preferring
    near siblings by the shard map's proximity table ({!set_shard}) —
    through the full client verification ladder, with any [full=1]
    recovery escalation pinned to the origin.  The origin remains the
    only write authority; gossip is bounded-staleness read repair, so a
    reachable-sibling partition bounds a relay's staleness by the gossip
    period.

    {b Relay headers.}  Every tenant response (including the [503]s)
    carries:
    - [X-Relay-Id]: this relay's id;
    - [X-Relay-Staleness]: {e consecutive failed upstream syncs} — a
      transport-health signal that resets to 0 on any verified contact;
    - [X-Relay-Version-Age]: {e ticks since the last verified sync}
      (against the harness clock, {!set_clock}) — an age signal that
      keeps growing while the relay serves fail-static state, even when
      no sync is being attempted.  Staleness says "my upstream is
      failing"; version-age says "how old what I serve might be".

    [POST /candidates] is not served locally: it is forwarded verbatim to
    the upstream transport ({!set_upstream}) without checking its ids,
    [503] when none is set or the forward fails. *)

type config = {
  compact_keep : int;
      (** Mirror entries kept delta-servable (compacted after each
          successful sync). *)
  digest_interval : int;
      (** Checkpoint stride of the anti-entropy digests this relay
          requests for repair; a [/digest] request it serves without
          [interval] gets {!Protocol.default_digest_interval}. *)
}

val default_config : config
(** [compact_keep = 64] (matching {!Authority.default_config}),
    [digest_interval] = {!Protocol.default_digest_interval}. *)

type t

val create :
  ?obs:Leakdetect_obs.Obs.t ->
  ?config:config ->
  ?client_config:Leakdetect_monitor.Signature_client.config ->
  ?seed:int ->
  id:string ->
  tenants:string list ->
  unit ->
  t
(** A relay named [id] serving [tenants].  [seed] derives per-tenant sync
    jitter.  @raise Invalid_argument on a bad id, tenant id or config. *)

val id : t -> string
val tenants : t -> string list
(** Sorted. *)

val version : t -> tenant:string -> int
(** Verified version held for the tenant (0 when unknown or unsynced). *)

val synced : t -> tenant:string -> bool
(** Whether the tenant has ever synced successfully (serving gate). *)

val checksum : t -> tenant:string -> int
(** Canonical-set CRC of the mirror actually being served for the tenant
    (the empty-set CRC when unknown) — what an audit compares against
    the committed checksum at {!version}. *)

val staleness : t -> tenant:string -> int
(** Consecutive failed upstream syncs for the tenant; 0 when fresh. *)

val version_age : t -> tenant:string -> int
(** Ticks since the tenant's last verified sync, against {!set_clock}. *)

val consistent : t -> tenant:string -> bool
(** Whether the tenant is synced {e and} its mirror head sits exactly on
    the verified client state — the serving guard's verdict. *)

val set_upstream : t -> (string -> (string, string) result) -> unit
(** Transport used to forward [POST /candidates]. *)

val set_peers : t -> (string * (string -> (string, string) result)) list -> unit
(** Sibling relays available to {!gossip}, as [(id, transport)] pairs
    (an entry matching this relay's own id is dropped). *)

val set_shard : t -> Shard_map.t -> unit
(** Install the shard map whose proximity table orders gossip peers. *)

val set_clock : t -> int -> unit
(** Advance the harness clock used by {!version_age} and the
    [X-Relay-Version-Age] header. *)

val sync_tenant :
  t ->
  tenant:string ->
  transport:(string -> (string, string) result) ->
  Leakdetect_monitor.Signature_client.sync_report
(** One verified sync round for the tenant against [transport] (the
    owning origin, under whatever fault plan the harness wraps).  On
    success the mirror absorbs the applied delta suffix; on any detected
    divergence (including one found under a verified 304) it is healed
    by ranged repair against [transport], falling back to a rebuild from
    the verified set; either way it is compacted to [compact_keep].
    @raise Invalid_argument on an unconfigured tenant. *)

val gossip :
  t ->
  upstream:(tenant:string -> string -> (string, string) result) ->
  unit
(** One gossip round over all tenants: probe each peer with a head-only
    digest, order strictly-fresher peers by (version, proximity, id) and
    catch up from the first whose answer passes the verification ladder
    ({!counters}[.gossip_catchups]).  [upstream tenant] must be the
    owning origin's transport — it only serves [full=1] recovery
    escalation, so a sibling can never supply the authoritative
    snapshot. *)

val inject_fork : t -> tenant:string -> unit
(** Adversarial harness hook: corrupt the tenant's mirror by dropping
    its newest entry and appending two forged ones, leaving the history
    diverged past [head - 1] while the earlier prefix stays honest —
    the shape ranged repair must heal without a resnapshot.  The
    serving guard refuses the mirror from the next request on. *)

type counters = {
  sync_rounds : int;
  sync_failures : int;  (** Rounds that exhausted the upstream budget. *)
  resnapshots : int;  (** Mirror rebuilds — the last-resort heal. *)
  resnapshot_bytes : int;
      (** Canonical snapshot bytes paid by those rebuilds. *)
  repairs : int;  (** Ranged anti-entropy repairs (splice, no rebuild). *)
  repair_bytes : int;
      (** Wire bytes paid by those repairs: digest + suffix responses. *)
  gossip_rounds : int;
  gossip_catchups : int;
      (** Tenant catch-ups pulled from a sibling during gossip. *)
  served_delta : int;
  served_snapshot : int;
  served_not_modified : int;
  served_unready : int;  (** 503s before the first verified sync. *)
  served_inconsistent : int;
      (** 503s while the mirror diverged from the verified state. *)
  served_digest : int;  (** Anti-entropy digests answered. *)
  forwarded : int;  (** Candidate POSTs relayed upstream. *)
  forward_failures : int;
}

val counters : t -> counters

val handle : t -> Leakdetect_http.Request.t -> Leakdetect_http.Response.t
(** Origin-shaped [GET /signatures] and [GET /digest] from the mirror
    (plus the relay headers on every tenant response), [GET /metrics]
    (Prometheus exposition: per-tenant staleness / version-age / version
    gauges and the counter totals), [POST /candidates] forwarded
    upstream; {!Protocol.route}'s [404] / [405] / [400] otherwise. *)

val wire_transport : t -> string -> (string, string) result
(** Parse printed request bytes, {!handle}, print the response. *)
