(** The paper's HTTP packet distance (Sec. IV-B and IV-C).

    Destination distance between packets [p_x], [p_y]:

      d_dst = d_ip + d_port + d_host

    - [d_ip]: the paper prints [lmatch/32], which would make identical
      addresses maximally distant and contradicts its own motivation; we
      implement the evident intent, [1 - lmatch/32].
    - [d_port]: likewise implemented as 0 for equal ports and 1 otherwise
      (the paper's [match] returns 1 on equality).
    - [d_host]: normalized Levenshtein distance over the FQDNs, exactly as
      printed.

    Content distance:

      d_header = ncd(request-line) + ncd(cookie) + ncd(body)

    with [ncd(x,y) = (C(xy) - min(C x, C y)) / max(C x, C y)] for a real
    compressor [C] (LZ77 by default).

    Overall packet distance: d_pkt = d_dst + d_header, so d_pkt ranges over
    [0, 6].  Component toggles support the ablation experiments. *)

type components = {
  use_ip : bool;
  use_port : bool;
  use_host : bool;
  use_rline : bool;
  use_cookie : bool;
  use_body : bool;
}

val all_components : components
val destination_only : components
val content_only : components

type content_metric = Ncd | Trigram
(** Content comparator: the paper's NCD (default), or cosine distance over
    byte-trigram profiles — the cheaper statistical comparator common in
    the traffic-clustering literature, kept for the ablation. *)

type t
(** Distance context: component configuration plus the NCD compressor
    cache.  Reuse one context across a whole clustering run so singleton
    compressed lengths are computed once. *)

val create :
  ?components:components ->
  ?compressor:Leakdetect_compress.Compressor.algorithm ->
  ?content_metric:content_metric ->
  ?registry:Leakdetect_net.Registry.t ->
  unit ->
  t
(** [registry] enables the WHOIS refinement of Sec. VI: when both packet
    destinations have a registered owner, [d_ip] becomes 0 (same owner) or
    1 (different owners) instead of the prefix heuristic. *)

val components : t -> components
val registry : t -> Leakdetect_net.Registry.t option

val d_ip : Leakdetect_net.Ipv4.t -> Leakdetect_net.Ipv4.t -> float
(** The registry-free prefix heuristic. *)

val d_ip_registry :
  Leakdetect_net.Registry.t ->
  Leakdetect_net.Ipv4.t -> Leakdetect_net.Ipv4.t -> float
(** Registry-verified address distance: 0 / 1 when ownership of both
    addresses is known, the prefix heuristic otherwise. *)

val d_port : int -> int -> float
val d_host : string -> string -> float

val d_dst : t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t -> float
val ncd : t -> string -> string -> float
val d_header : t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t -> float
val d_pkt : t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t -> float

val matrix :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  t -> Leakdetect_http.Packet.t array -> Leakdetect_cluster.Dist_matrix.t
(** Pairwise [d_pkt] over the sample — the input to clustering.

    [?obs] (default noop) records a [distance.matrix] span, the
    [leakdetect_distance_pairs_total] counter and the
    [leakdetect_distance_matrix_seconds] histogram — once per build, so the
    pair loop itself carries no instrumentation.

    With [?pool] (size > 1) the O(N^2) pair loop fans out across domains.
    Domain safety follows a two-phase protocol: every per-string compressed
    length (or trigram profile) is computed in a sealed read-only prewarm
    pass, both caches are frozen, the pair loop runs with lookups only,
    and the caches are thawed afterwards.  Pair-concatenation lengths are
    pair-specific work and are computed inside the loop either way.  The
    resulting matrix is bit-identical to the sequential build. *)

val with_frozen :
  ?pool:Leakdetect_parallel.Pool.t ->
  t ->
  Leakdetect_http.Packet.t array ->
  (init:(unit -> t) -> 'a) ->
  'a
(** [with_frozen ?pool t packets f] runs [f] inside the two-phase freeze
    window that makes this context safe to share across domains: every
    per-string compressed length (or trigram profile) over [packets] is
    computed in a sealed prewarm pass, both caches are frozen, and [f]
    receives an [init] factory producing per-domain contexts.  Every
    context reads the one frozen NCD singleton cache directly; the trigram
    cache gets a private shadow overlay per domain, unless the caches were
    already frozen by an enclosing call, in which case [init] returns [t]
    itself.  Caches are thawed when [f] returns or raises.
    [Distance.matrix] uses this internally; the
    sketch-bucketed clustering driver uses it to fan whole buckets out
    across domains while building each bucket's matrix sequentially. *)

val ncd_cache : t -> Leakdetect_compress.Compressor.Cache.t
(** The NCD cache backing this context — exposed for cache statistics in
    benchmarks and for tests of the freezing protocol. *)

val trigram_cache : t -> Leakdetect_text.Trigram.Cache.t

val max_possible : t -> float
(** Upper bound of [d_pkt] under the enabled components (each enabled
    component contributes at most 1). *)
