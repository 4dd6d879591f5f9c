(** Labeled packet traces — the dataset format of the reproduction.

    A record carries the packet, the id of the application that produced it
    and its ground-truth labels (which sensitive-information kinds the
    payload carries; empty for benign packets).  Labels are opaque strings
    here so the format does not depend on the Android model.

    The on-disk format is line-oriented: one record per line, tab-separated
    fields, with backslash escaping for tab / newline / backslash, making
    traces greppable and diff-friendly.

    Real captured traces are full of truncated and malformed records, so
    every reader takes an [on_error] mode: [`Fail] (the default) stops at
    the first malformed line, [`Skip] recovers past it and reports how many
    records were skipped together with a sample of the offending lines. *)

type record = {
  packet : Packet.t;
  app_id : int;
  labels : string list;
}

type on_error = [ `Fail | `Skip ]

type skipped = {
  skipped : int;  (** Malformed records passed over in [`Skip] mode. *)
  sample : (int * string) list;
      (** Up to {!sample_limit} [(line or record number, error)] pairs, in
          file order. *)
}

val no_skips : skipped
val sample_limit : int

val add_skip : skipped -> int -> string -> skipped
(** [add_skip s lineno err] counts one more skipped record, retaining the
    error in the sample while under {!sample_limit}.  Shared with the
    binary/compressed readers. *)

val escape_field : string -> string
val unescape_field : string -> string option

val record_to_line : record -> string
val record_of_line : string -> (record, string) result

val save : string -> record list -> unit
(** Writes a trace file (overwrites). *)

val with_input :
  ?binary:bool -> string -> (in_channel -> ('a, string) result) -> ('a, string) result
(** [with_input path f] opens [path] (text mode unless [binary]), runs [f]
    and closes the channel.  A file that cannot be opened or read is an
    [Error] carrying the system message (which names the file), never a
    [Sys_error]. *)

val load : ?on_error:on_error -> string -> (record list * skipped, string) result
(** Reads a trace file.  [`Fail] reports the first malformed line with its
    number (and {!no_skips}); [`Skip] returns every parseable record.  A
    missing or unreadable file is an [Error]. *)

val fold :
  ?on_error:on_error -> string -> init:'a -> f:('a -> record -> 'a) -> ('a * skipped, string) result
(** Streaming left fold over a trace file — constant memory, for traces too
    large to materialize. *)

val iter : ?on_error:on_error -> string -> f:(record -> unit) -> (skipped, string) result
