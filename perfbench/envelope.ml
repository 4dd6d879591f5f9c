(* The environment every result carries: source revision, compiler,
   core counts, seed and workload parameters. *)

module Json = Leakdetect_util.Json

(* The first line [prog args] prints, or None when it cannot run or
   fails. *)
let first_line prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* A checkout without .git, or without git, reports "unknown". *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else Option.value ~default:"unknown" (first_line "git" [ "rev-parse"; "HEAD" ])

(* [nproc] as the shell reports it (honours CPU affinity); -1 when the
   command is unavailable. *)
let nproc () = Option.value ~default:(-1) (Option.bind (first_line "nproc" []) int_of_string_opt)

let make ~seed ~trace (w : Spec.workload) =
  Json.Obj
    [ ("commit", Json.String (commit ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (nproc ()));
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int 1);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
      ("workload", Json.String w.Spec.name);
      ( "params",
        Json.Obj
          [ ("scale", Json.Float w.scale);
            ("sample_n", Json.Int w.sample_n);
            ("mutated_share", Json.Float w.mutated_share);
            ("chunked_share", Json.Float Spec.chunked_share);
            ("signatures", Json.Int w.signatures);
            ("clients", Json.Int Spec.clients);
            ("relays", Json.Int Spec.relays);
            ("slice", Json.Int Spec.slice);
            ("epoch", Json.Int Spec.epoch);
            ("keep", Json.Int Spec.keep) ] ) ]
