(** Unified compressor interface.

    The normalized compression distance (Sec. IV-C) treats the compressor as
    a parameter [C].  The paper does not name its compressor; LZ77 is the
    default here (same family as the zlib/gzip coders normally used for NCD)
    and LZW / Huffman are kept for the ablation benchmark. *)

type algorithm = Lz77 | Lzw | Huffman

val all : algorithm list
val name : algorithm -> string
val of_name : string -> algorithm option

val compress : algorithm -> string -> string
val decompress : algorithm -> string -> string

val length_bits : algorithm -> string -> int
(** [length_bits algo s] is [C(s)] in bits — the quantity fed to the NCD
    formula.  Bits rather than bytes: packets are short and byte rounding
    would quantize the distance visibly. *)

module Cache : sig
  (** Memoizes [C(x)] per input string.  The clustering stage evaluates
      C(x), C(y) and C(xy) for every pair in an NxN matrix; caching the
      singleton lengths removes two of the three compressions per pair.
      [C(xy)] is computed on every call: at a few microseconds per
      compression a pair table costs about as much as it saves.

      {b Freezing.}  A plain [Hashtbl] is not safe for concurrent mutation,
      so the parallel distance matrix uses a two-phase protocol: warm the
      cache sequentially (or via {!preload}), call {!freeze}, then share
      the cache read-only across domains.  While frozen, singleton lookups
      that miss degrade to a direct computation — nothing is inserted —
      and are counted in [stats.frozen_misses]; {!preload} raises.
      {!thaw} restores normal single-domain caching. *)

  type t

  type stats = {
    hits : int;  (** singleton-length cache hits *)
    misses : int;  (** singleton-length computations that were cached *)
    pair_hits : int;  (** always 0: pair lengths are not cached *)
    pair_misses : int;  (** pair-length [C(xy)] computations while unfrozen *)
    frozen_misses : int;  (** uncached singleton computations while frozen *)
  }

  val create : algorithm -> t

  val algorithm : t -> algorithm
  val length_bits : t -> string -> int

  val preload : t -> string -> int -> unit
  (** [preload t s c] seeds the singleton cache with a length computed
      elsewhere (the parallel prewarm pass).  First write wins.
      @raise Invalid_argument when the cache is frozen. *)

  val freeze : t -> unit
  (** Seal the table read-only so the cache can be shared across
      domains.  Idempotent. *)

  val thaw : t -> unit
  val frozen : t -> bool

  val ncd : t -> string -> string -> float
  (** [ncd t x y] is [(C(xy) - min(C(x),C(y))) / max(C(x),C(y))], clamped to
      [\[0, 1\]]; by convention 0 when both strings are empty.  The
      concatenation is formed in canonical (lexicographic) order so the
      distance is exactly symmetric. *)

  val stats : t -> stats
  (** Counter snapshot — exposed for tests and the benchmark report.
      Counters other than [frozen_misses] are only maintained while
      unfrozen (they would be data races otherwise). *)

  val size : t -> int
  (** Singleton entries currently cached. *)
end
