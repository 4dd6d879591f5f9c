type algorithm = Lz77 | Lzw | Huffman

let all = [ Lz77; Lzw; Huffman ]

let name = function Lz77 -> "lz77" | Lzw -> "lzw" | Huffman -> "huffman"

let of_name = function
  | "lz77" -> Some Lz77
  | "lzw" -> Some Lzw
  | "huffman" -> Some Huffman
  | _ -> None

let compress = function
  | Lz77 -> Lz77.compress
  | Lzw -> Lzw.compress
  | Huffman -> Huffman.compress

let decompress = function
  | Lz77 -> Lz77.decompress
  | Lzw -> Lzw.decompress
  | Huffman -> Huffman.decompress

let length_bits = function
  | Lz77 -> Lz77.compressed_length_bits
  | Lzw -> Lzw.compressed_length_bits
  | Huffman -> Huffman.compressed_length_bits

let algo_length_bits = length_bits

module Cache = struct
  type stats = {
    hits : int;
    misses : int;
    pair_hits : int;
    pair_misses : int;
    frozen_misses : int;
  }

  type t = {
    algo : algorithm;
    table : (string, int) Hashtbl.t;
    mutable frozen : bool;
    mutable hits : int;
    mutable misses : int;
    mutable pair_misses : int;
    frozen_misses : int Atomic.t;  (* the only counter touched while frozen *)
  }

  let create algo =
    {
      algo;
      table = Hashtbl.create 1024;
      frozen = false;
      hits = 0;
      misses = 0;
      pair_misses = 0;
      frozen_misses = Atomic.make 0;
    }

  let algorithm t = t.algo
  let freeze t = t.frozen <- true
  let thaw t = t.frozen <- false
  let frozen t = t.frozen

  let length_bits t s =
    match Hashtbl.find_opt t.table s with
    | Some v ->
      if not t.frozen then t.hits <- t.hits + 1;
      v
    | None when t.frozen ->
      (* Read-only mode: degrade to a direct computation rather than
         mutating a table other domains are reading. *)
      Atomic.incr t.frozen_misses;
      algo_length_bits t.algo s
    | None ->
      t.misses <- t.misses + 1;
      let v = algo_length_bits t.algo s in
      Hashtbl.add t.table s v;
      v

  let preload t s v =
    if t.frozen then invalid_arg "Compressor.Cache.preload: cache is frozen";
    if not (Hashtbl.mem t.table s) then Hashtbl.add t.table s v

  (* C(xy) and C(yx) differ slightly; canonical ordering keeps the distance
     exactly symmetric. *)
  let ncd t x y =
    if String.length x = 0 && String.length y = 0 then 0.
    else begin
      let cx = length_bits t x and cy = length_bits t y in
      let x, y = if String.compare x y <= 0 then (x, y) else (y, x) in
      if not t.frozen then t.pair_misses <- t.pair_misses + 1;
      let cxy = algo_length_bits t.algo (x ^ y) in
      let lo = min cx cy and hi = max cx cy in
      let d = float_of_int (cxy - lo) /. float_of_int hi in
      Float.min 1. (Float.max 0. d)
    end

  let stats t =
    {
      hits = t.hits;
      misses = t.misses;
      pair_hits = 0;
      pair_misses = t.pair_misses;
      frozen_misses = Atomic.get t.frozen_misses;
    }

  let size t = Hashtbl.length t.table
end
