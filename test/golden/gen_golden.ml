(* Writes the golden signature sets the tier-1 suite compares against:
   [Pipeline.run] with the default config on [Workload.generate ~seed:42
   ~scale:0.25] at N = 100, 300 and 500 (rng [Prng.create (7 + n)]).

     dune exec test/golden/gen_golden.exe -- test/golden

   writes [n<N>.sig] (one [Signature_io] line per signature) and
   [metrics.txt] (one line per N: the counts and the three rates printed
   with %.17g so they read back exactly). *)

open Leakdetect_core

let ns = [ 100; 300; 500 ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let ds = Leakdetect_android.Workload.generate ~seed:42 ~scale:0.25 () in
  let suspicious, normal = Leakdetect_android.Workload.split ds in
  let metrics =
    List.map
      (fun n ->
        let o =
          Pipeline.run ~rng:(Leakdetect_util.Prng.create (7 + n)) ~n ~suspicious ~normal ()
        in
        Signature_io.save (Filename.concat dir (Printf.sprintf "n%d.sig" n)) o.Pipeline.signatures;
        let m = o.Pipeline.metrics and c = o.Pipeline.metrics.Metrics.counts in
        Printf.sprintf "%d %d %d %d %d %.17g %.17g %.17g" c.Metrics.n c.Metrics.sensitive_total
          c.Metrics.sensitive_detected c.Metrics.normal_total c.Metrics.normal_detected
          m.Metrics.true_positive m.Metrics.false_negative m.Metrics.false_positive)
      ns
  in
  Out_channel.with_open_text (Filename.concat dir "metrics.txt") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) metrics)
