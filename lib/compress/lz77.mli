(** LZ77 with a hash-chain match finder — the workhorse compressor behind the
    normalized compression distance (Sec. IV-C).  The format is a simple
    bit-packed token stream (not DEFLATE-compatible), chosen so that the
    compressed length reflects repeated structure the same way zlib would:

    - header: original length as a 32-bit little-endian bit field;
    - literal token: a [0] bit then 8 bits of the byte;
    - match token: a [1] bit, 15 bits of backwards distance (1-based) and
      8 bits of [length - min_match].

    Window 32 KiB, match lengths 3..258 (as in DEFLATE).

    {b Scratch.}  {!compress} and {!compressed_length_bits} share one greedy
    hash-chain parse.  Its match-finder tables live in per-domain scratch
    ([Domain.DLS]), reused across calls: the 32,768-entry head table is
    allocated once per domain and invalidated per call by a generation
    base (entries stored before the call's base are dead) instead of being
    refilled, and the chain buffer grows to the longest input the domain
    has seen.  Calls from different domains never share scratch, so both
    functions are safe to run in parallel; the output does not depend on
    what a domain compressed before. *)

val min_match : int
val max_match : int
val window_size : int

val compress : string -> string
val decompress : string -> string
(** @raise Invalid_argument on a corrupt stream. *)

val compressed_length_bits : string -> int
(** Exact output size in bits, [32 + 9 * literals + 24 * matches], counted
    from the parse without emitting any bits. *)
