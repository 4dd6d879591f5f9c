(** Signature-set persistence.

    The Figure 3 architecture separates the generation server from the
    on-device application, which periodically fetches the signature set;
    this module defines the interchange format.  Line-oriented:

      id TAB mode TAB cluster_size TAB token1 TAB token2 ...

    with backslash escaping of tab/newline/backslash inside tokens. *)

val to_line : Signature.t -> string

val of_line : string -> (Signature.t, Leakdetect_util.Leak_error.t) result
(** Parse errors use the unified {!Leakdetect_util.Leak_error.t} shared
    with the wire and response parsers; render with
    {!Leakdetect_util.Leak_error.to_string}. *)

val save : string -> Signature.t list -> unit

val load :
  ?config:Pipeline_config.t ->
  ?on_error:[ `Fail | `Skip ] ->
  string ->
  (Signature.t list * Leakdetect_http.Trace.skipped, string) result
(** Reads a signature file.  Like the trace readers, [`Fail] reports the
    first malformed line with its line number; [`Skip] salvages every
    parseable signature and counts the skipped lines, keeping a sample of
    the offending line numbers and errors.  A missing or unreadable file
    is an [Error] naming it.

    The policy comes from [?on_error] when given, else from
    [?config.on_error], else [`Fail]; the explicit argument survives as a
    deprecated override for pre-[Pipeline.Config] call sites. *)
