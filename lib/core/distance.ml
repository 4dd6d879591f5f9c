module Ipv4 = Leakdetect_net.Ipv4
module Domain = Leakdetect_net.Domain
module Packet = Leakdetect_http.Packet
module Compressor = Leakdetect_compress.Compressor

type components = {
  use_ip : bool;
  use_port : bool;
  use_host : bool;
  use_rline : bool;
  use_cookie : bool;
  use_body : bool;
}

let all_components =
  { use_ip = true; use_port = true; use_host = true;
    use_rline = true; use_cookie = true; use_body = true }

let destination_only =
  { all_components with use_rline = false; use_cookie = false; use_body = false }

let content_only =
  { all_components with use_ip = false; use_port = false; use_host = false }

type content_metric = Ncd | Trigram

type t = {
  comps : components;
  cache : Compressor.Cache.t;
  trigram_cache : Leakdetect_text.Trigram.Cache.t;
  metric : content_metric;
  registry : Leakdetect_net.Registry.t option;
}

let create ?(components = all_components) ?(compressor = Compressor.Lz77)
    ?(content_metric = Ncd) ?registry () =
  {
    comps = components;
    cache = Compressor.Cache.create compressor;
    trigram_cache = Leakdetect_text.Trigram.Cache.create ();
    metric = content_metric;
    registry;
  }

let components t = t.comps
let registry t = t.registry

let d_ip a b = 1. -. Ipv4.similarity a b

let d_ip_registry registry a b =
  match Leakdetect_net.Registry.same_organization registry a b with
  | Some true -> 0.
  | Some false -> 1.
  | None -> d_ip a b
let d_port a b = if a = b then 0. else 1.
let d_host a b = Domain.normalized_edit_distance a b

let d_dst t (px : Packet.t) (py : Packet.t) =
  let dx = px.dst and dy = py.dst in
  let acc = ref 0. in
  if t.comps.use_ip then begin
    let d =
      match t.registry with
      | Some registry -> d_ip_registry registry dx.Packet.ip dy.Packet.ip
      | None -> d_ip dx.Packet.ip dy.Packet.ip
    in
    acc := !acc +. d
  end;
  if t.comps.use_port then acc := !acc +. d_port dx.Packet.port dy.Packet.port;
  if t.comps.use_host then acc := !acc +. d_host dx.Packet.host dy.Packet.host;
  !acc

let ncd t x y = Compressor.Cache.ncd t.cache x y

let content_distance t x y =
  match t.metric with
  | Ncd -> ncd t x y
  | Trigram -> Leakdetect_text.Trigram.Cache.distance t.trigram_cache x y

let d_header t (px : Packet.t) (py : Packet.t) =
  let cx = px.content and cy = py.content in
  let acc = ref 0. in
  if t.comps.use_rline then
    acc := !acc +. content_distance t cx.Packet.request_line cy.Packet.request_line;
  if t.comps.use_cookie then
    acc := !acc +. content_distance t cx.Packet.cookie cy.Packet.cookie;
  if t.comps.use_body then acc := !acc +. content_distance t cx.Packet.body cy.Packet.body;
  !acc

let d_pkt t px py = d_dst t px py +. d_header t px py

module Pool = Leakdetect_parallel.Pool

let ncd_cache t = t.cache
let trigram_cache t = t.trigram_cache

(* Distinct content strings the enabled components will compare. *)
let content_strings t packets =
  let tbl = Hashtbl.create 256 in
  let add s = if not (Hashtbl.mem tbl s) then Hashtbl.add tbl s () in
  Array.iter
    (fun (p : Packet.t) ->
      let c = p.Packet.content in
      if t.comps.use_rline then add c.Packet.request_line;
      if t.comps.use_cookie then add c.Packet.cookie;
      if t.comps.use_body then add c.Packet.body)
    packets;
  Array.of_seq (Hashtbl.to_seq_keys tbl)

(* Sealed read-only warm pass: compute every per-string quantity the pair
   loop will look up, insert it while still single-domain, then freeze the
   caches so the loop can share them across domains. *)
let prewarm ~pool t packets =
  let strings = content_strings t packets in
  (match t.metric with
  | Ncd ->
    let algo = Compressor.Cache.algorithm t.cache in
    let lens = Pool.parallel_map_array ~pool (Compressor.length_bits algo) strings in
    Array.iteri (fun i s -> Compressor.Cache.preload t.cache s lens.(i)) strings
  | Trigram ->
    Array.iter (Leakdetect_text.Trigram.Cache.preload t.trigram_cache) strings);
  Compressor.Cache.freeze t.cache;
  Leakdetect_text.Trigram.Cache.freeze t.trigram_cache

module Obs = Leakdetect_obs.Obs

(* Freeze-window combinator shared by the full matrix build and the
   sketch-bucketed driver: prewarm every per-string quantity, freeze both
   caches, hand the body a per-domain context factory, thaw on the way out.
   Every domain reads the one frozen singleton NCD cache directly (C(xy) is
   never cached, so there is nothing per-domain to keep).  The trigram
   cache still gets a private shadow per domain when this call did the
   freezing; when the caller arrives with already-frozen caches (a warm
   context reused across runs) every lookup is served read-only from the
   shared tables and the context is handed out as is.  Either way the
   values are identical: caching only skips recomputation. *)
let with_frozen ?pool t packets f =
  let was_frozen = Compressor.Cache.frozen t.cache in
  if not was_frozen then prewarm ~pool t packets;
  Fun.protect
    ~finally:(fun () ->
      if not was_frozen then begin
        Compressor.Cache.thaw t.cache;
        Leakdetect_text.Trigram.Cache.thaw t.trigram_cache
      end)
    (fun () ->
      let init =
        if was_frozen then fun () -> t
        else
          fun () ->
            { t with trigram_cache = Leakdetect_text.Trigram.Cache.shadow t.trigram_cache }
      in
      f ~init)

let build_matrix ?pool t packets =
  let n = Array.length packets in
  let parallel = match pool with Some p -> Pool.size p > 1 | None -> false in
  if not parallel then
    Leakdetect_cluster.Dist_matrix.build n (fun i j -> d_pkt t packets.(i) packets.(j))
  else
    with_frozen ?pool t packets (fun ~init ->
        let m = Leakdetect_cluster.Dist_matrix.create n in
        (* Row i owns a contiguous condensed range, so every cell is
           written exactly once; guided claiming hands out large row ranges
           first and shrinks toward the floor as the triangle drains. *)
        Pool.parallel_for_with ~pool ~init n (fun local i ->
            for j = i + 1 to n - 1 do
              Leakdetect_cluster.Dist_matrix.set m i j (d_pkt local packets.(i) packets.(j))
            done);
        m)

let matrix ?pool ?(obs = Obs.noop) t packets =
  if Obs.is_noop obs then build_matrix ?pool t packets
  else
    Obs.with_span obs "distance.matrix" @@ fun () ->
    let n = Array.length packets in
    let t0 = Obs.Clock.now_ns () in
    let m = build_matrix ?pool t packets in
    Obs.Histogram.observe
      (Obs.histogram obs ~help:"Distance-matrix build latency."
         ~buckets:Obs.duration_buckets "leakdetect_distance_matrix_seconds")
      (float_of_int (Obs.Clock.now_ns () - t0) /. 1e9);
    Obs.Counter.add
      (Obs.counter obs ~help:"Packet pairs compared while building matrices."
         "leakdetect_distance_pairs_total")
      (n * (n - 1) / 2);
    m

let max_possible t =
  let b flag = if flag then 1. else 0. in
  b t.comps.use_ip +. b t.comps.use_port +. b t.comps.use_host
  +. b t.comps.use_rline +. b t.comps.use_cookie +. b t.comps.use_body
