(* Operations attempted and failed, and correctness problems, for the
   run's result line.  A run with any problem reports [correct: false]
   and exits non-zero. *)

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let op ok =
  incr attempted;
  if not ok then incr failed

let check ok fmt = Printf.ksprintf (fun s -> if not ok then problems := s :: !problems) fmt
