(* Clustering backend: the seam between signature generation and the
   cluster library.

   [Exact] is the paper's path — one O(N^2) NCD matrix, one clustering
   run.  [Sketch] is the sub-quadratic path: minhash/LSH buckets
   near-duplicate payloads first (lib/sketch), runs the exact matrix and
   the selected algorithm only inside each bucket, and stitches the
   per-bucket results back into one output.  Bucket contents never mix
   below the synthetic join height, so with one bucket the result is
   byte-identical to [Exact]. *)

module Packet = Leakdetect_http.Packet
module Pool = Leakdetect_parallel.Pool
module Obs = Leakdetect_obs.Obs
module Cluster = Leakdetect_cluster.Cluster
module Dist_matrix = Leakdetect_cluster.Dist_matrix
module Dendrogram = Leakdetect_cluster.Dendrogram
module Sketch = Leakdetect_sketch.Sketch

type backend = Exact | Sketch of Sketch.params

let default_sketch = Sketch.default

let backend_name = function Exact -> "exact" | Sketch _ -> "sketch"

type stats = {
  backend : string;
  buckets : int;
  largest_bucket : int;
  exact_pairs : int;  (** NCD pair distances actually computed *)
  total_pairs : int;  (** C(n,2): what [Exact] would compute *)
}

type result = { output : Cluster.output; stats : stats }

let pairs n = n * (n - 1) / 2

let exact_stats ~backend n =
  { backend; buckets = 1; largest_bucket = n; exact_pairs = pairs n; total_pairs = pairs n }

let run_exact ?pool ~obs algorithm dist sample =
  let matrix = Distance.matrix ?pool ~obs dist sample in
  { output = Cluster.run algorithm matrix;
    stats = exact_stats ~backend:"exact" (Array.length sample) }

(* Rewrite a per-bucket tree's leaf indices (positions within the bucket)
   to the global sample indices they stand for. *)
let rec remap members = function
  | Dendrogram.Leaf i -> Dendrogram.Leaf members.(i)
  | Dendrogram.Node { left; right; height; size } ->
      Dendrogram.Node { left = remap members left; right = remap members right; height; size }

(* Join bucket roots pairwise into a balanced tree at one synthetic height
   above any real linkage distance, so every sensible cut separates buckets
   and tree depth grows by log(#buckets), not #buckets. *)
let rec join_balanced ~height = function
  | [] -> None
  | [ t ] -> Some t
  | trees ->
      let rec pair_up = function
        | a :: b :: rest -> Dendrogram.node a b height :: pair_up rest
        | tail -> tail
      in
      join_balanced ~height (pair_up trees)

let bucket_obs obs ~buckets ~sizes ~exact_pairs ~total_pairs =
  if not (Obs.is_noop obs) then begin
    Obs.Counter.add
      (Obs.counter obs ~help:"LSH buckets produced by sketch clustering."
         "leakdetect_cluster_buckets_total")
      buckets;
    let h =
      Obs.histogram obs ~help:"Members per LSH bucket."
        ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. ]
        "leakdetect_cluster_bucket_size"
    in
    Array.iter (fun s -> Obs.Histogram.observe h (float_of_int s)) sizes;
    Obs.Counter.add
      (Obs.counter obs ~help:"Exact NCD pairs computed inside buckets."
         "leakdetect_cluster_exact_pairs_total")
      exact_pairs;
    Obs.Counter.add
      (Obs.counter obs
         ~help:"Exact NCD pairs skipped relative to the full O(N^2) matrix."
         "leakdetect_cluster_pairs_avoided_total")
      (total_pairs - exact_pairs)
  end

let run_sketch ?pool ~obs algorithm params dist sample =
  let n = Array.length sample in
  let payloads = Array.map Packet.content_string sample in
  let buckets =
    Obs.with_span obs "clustering.sketch" (fun () -> Sketch.bucket ?pool params payloads)
  in
  match buckets with
  | [] -> { output = Cluster.Empty; stats = { (exact_stats ~backend:"sketch" 0) with buckets = 0; largest_bucket = 0 } }
  | [ _ ] ->
      (* Everything collided into one bucket, whose members are 0..n-1 in
         order: the exact path on the same matrix, byte for byte. *)
      bucket_obs obs ~buckets:1 ~sizes:[| n |] ~exact_pairs:(pairs n) ~total_pairs:(pairs n);
      { (run_exact ?pool ~obs algorithm dist sample) with
        stats = exact_stats ~backend:"sketch" n }
  | buckets ->
      let groups = Array.of_list (List.map Array.of_list buckets) in
      let nb = Array.length groups in
      let sizes = Array.map Array.length groups in
      let exact_pairs = Array.fold_left (fun acc s -> acc + pairs s) 0 sizes in
      let total_pairs = pairs n in
      bucket_obs obs ~buckets:nb ~sizes ~exact_pairs ~total_pairs;
      let outputs = Array.make nb Cluster.Empty in
      (* Fan whole buckets out across domains: caches are frozen once over
         the full sample, each domain works through its buckets with the
         context [init] hands it, and every bucket's matrix build stays
         sequential (pools must not nest).  Slot [bi] is owned by bucket
         [bi], so the result is identical at any pool size. *)
      Distance.with_frozen ?pool dist sample (fun ~init ->
          Pool.parallel_for_with ~pool ~init nb (fun local bi ->
              let members = groups.(bi) in
              let m =
                Dist_matrix.build (Array.length members) (fun i j ->
                    Distance.d_pkt local sample.(members.(i)) sample.(members.(j)))
              in
              outputs.(bi) <- Cluster.run algorithm m));
      let output =
        if Cluster.is_hierarchical algorithm then begin
          let trees =
            Array.to_list
              (Array.mapi
                 (fun bi o ->
                   match o with
                   | Cluster.Hierarchy t -> remap groups.(bi) t
                   | Cluster.Empty | Cluster.Partition _ ->
                       (* buckets are non-empty and the algorithm is
                          hierarchical, so per-bucket output is a
                          hierarchy (a singleton bucket yields Leaf). *)
                       assert false)
                 outputs)
          in
          let join_height = Distance.max_possible dist +. 1.0 in
          match join_balanced ~height:join_height trees with
          | None -> Cluster.Empty
          | Some t -> Cluster.Hierarchy t
        end
        else begin
          let clusters = ref [] and noise = ref [] in
          Array.iteri
            (fun bi o ->
              match o with
              | Cluster.Partition { clusters = cs; noise = ns } ->
                  let members = groups.(bi) in
                  clusters :=
                    !clusters @ List.map (List.map (fun i -> members.(i))) cs;
                  noise := !noise @ List.map (fun i -> members.(i)) ns
              | Cluster.Empty | Cluster.Hierarchy _ -> assert false)
            outputs;
          Cluster.Partition { clusters = !clusters; noise = !noise }
        end
      in
      { output;
        stats =
          {
            backend = "sketch";
            buckets = nb;
            largest_bucket = Array.fold_left max 0 sizes;
            exact_pairs;
            total_pairs;
          };
      }

let run ?pool ?(obs = Obs.noop) ~backend ~algorithm dist sample =
  if Array.length sample = 0 then
    { output = Cluster.Empty;
      stats =
        { backend = backend_name backend; buckets = 0; largest_bucket = 0;
          exact_pairs = 0; total_pairs = 0 } }
  else
    match backend with
    | Exact -> run_exact ?pool ~obs algorithm dist sample
    | Sketch params -> run_sketch ?pool ~obs algorithm params dist sample
