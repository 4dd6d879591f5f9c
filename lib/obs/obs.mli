(** Lightweight, zero-dependency observability: monotonic-clock spans with
    parent/child nesting, atomic counters and gauges, fixed-bucket
    histograms, and a Prometheus-style text exposition.

    Everything is domain-safe so instrumentation composes with the domain
    pool: counter/gauge/histogram updates are lock-free atomics, metric
    registration is serialized by a per-registry mutex, and the span stack
    is domain-local, so spans opened on different domains never interleave.

    The {!noop} registry turns every operation into a cheap branch —
    instrumented code paths pay one tag test and nothing else — so
    observability is opt-out-able without touching call sites.  Handles
    ({!Counter.t}, {!Gauge.t}, {!Histogram.t}) interned from [noop] are
    permanently inert. *)

type t
(** A metric registry: either the shared inert {!noop} or an active
    registry created with {!create}. *)

val noop : t
(** The inert registry: registration returns no-op handles, spans run their
    body with zero bookkeeping, the exposition is empty. *)

val create : unit -> t
(** A fresh, empty, active registry. *)

val is_noop : t -> bool

(** {1 Clock} *)

module Clock : sig
  val now_ns : unit -> int
  (** Wall clock in integer nanoseconds, forced monotonically non-decreasing
      across all domains (an atomic max guards against clock steps), so span
      durations are never negative. *)
end

(** {1 Scalar metrics} *)

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment. *)

  val value : t -> int
  (** Always 0 for a handle from the noop registry. *)
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
end

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
(** [counter reg name] interns (or finds) the counter series [name] with the
    given labels.  The same (name, labels) pair always yields the same
    underlying cell, so handles can be re-interned freely.
    @raise Invalid_argument on a malformed metric/label name or when [name]
    is already registered with a different metric kind. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float list ->
  string ->
  Histogram.t
(** [buckets] are finite upper bounds, strictly increasing; a [+Inf] bucket
    is implicit.  All series of one family share the first-registered bucket
    layout. *)

val duration_buckets : float list
(** Default latency buckets, in seconds: 100us .. 10s. *)

val ratio_buckets : float list
(** Buckets for rates in [0, 1] (recall, hit ratios): 0.1 .. 1.0. *)

(** {1 Spans} *)

module Span : sig
  type t

  val name : t -> string
  val start_ns : t -> int
  val duration_ns : t -> int
  val children : t -> t list
  (** Completed children, oldest first. *)

  val render : t -> string
  (** Multi-line indented tree with durations, for the CLI trace view. *)
end

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span reg name f] runs [f ()] inside a span.  Spans opened while
    another span of the same domain is open become its children; spans that
    finish with no open parent are recorded as roots.  The span is closed
    (and attached) even when [f] raises.  On the noop registry this is
    exactly [f ()]. *)

val root_spans : t -> Span.t list
(** Completed root spans, oldest first. *)

val reset_spans : t -> unit
(** Drop recorded root spans (metrics are untouched). *)

(** {1 Introspection and exposition} *)

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of { buckets : (float * int) list; sum : float; count : int }
      (** [buckets] pair each finite upper bound with its (non-cumulative)
          count; observations above the last bound are in [count] minus the
          bucket total. *)

type sample = {
  family : string;
  help : string;
  labels : (string * string) list;  (** Sorted by label name. *)
  value : value;
}

val samples : t -> sample list
(** Every registered series, families sorted by name, series within a
    family sorted by label set. *)

val to_prometheus : t -> string
(** Prometheus text exposition (format version 0.0.4): [# HELP] / [# TYPE]
    per family, one line per series, label values escaped, histogram
    emitted as cumulative [_bucket{le=...}] plus [_sum] and [_count].
    Deterministic: families and series are sorted. *)
