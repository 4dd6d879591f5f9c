(* Tests for Leakdetect_compress: bit I/O, the three compressors, and the
   NCD cache the packet-content distance is built on. *)

open Leakdetect_compress

let qtest = QCheck_alcotest.to_alcotest

(* --- Bitio --- *)

let test_bitio_basic () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w 0b101 3;
  Bitio.Writer.add_bits w 0xff 8;
  Alcotest.(check int) "bit length" 11 (Bitio.Writer.bit_length w);
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  Alcotest.(check int) "first field" 0b101 (Bitio.Reader.read_bits r 3);
  Alcotest.(check int) "second field" 0xff (Bitio.Reader.read_bits r 8)

let test_bitio_end_of_input () =
  let r = Bitio.Reader.of_string "" in
  Alcotest.check_raises "end of input" Bitio.Reader.End_of_input (fun () ->
      ignore (Bitio.Reader.read_bit r))

let prop_bitio_roundtrip =
  let field = QCheck.Gen.(pair (int_bound 0xffff) (int_range 1 16)) in
  QCheck.Test.make ~name:"bit fields round-trip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 20) field))
    (fun fields ->
      let fields = List.map (fun (v, w) -> (v land ((1 lsl w) - 1), w)) fields in
      let w = Bitio.Writer.create () in
      List.iter (fun (v, width) -> Bitio.Writer.add_bits w v width) fields;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      List.for_all (fun (v, width) -> Bitio.Reader.read_bits r width = v) fields)

(* --- Round-trips --- *)

let ascii_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 600))
let binary_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 400))

let roundtrip_prop name algo gen =
  QCheck.Test.make ~name ~count:200 (QCheck.make gen) (fun s ->
      Compressor.decompress algo (Compressor.compress algo s) = s)

let prop_lz77_ascii = roundtrip_prop "lz77 round-trip (ascii)" Compressor.Lz77 ascii_gen
let prop_lz77_binary = roundtrip_prop "lz77 round-trip (binary)" Compressor.Lz77 binary_gen
let prop_lzw_ascii = roundtrip_prop "lzw round-trip (ascii)" Compressor.Lzw ascii_gen
let prop_lzw_binary = roundtrip_prop "lzw round-trip (binary)" Compressor.Lzw binary_gen
let prop_huffman_ascii = roundtrip_prop "huffman round-trip (ascii)" Compressor.Huffman ascii_gen
let prop_huffman_binary = roundtrip_prop "huffman round-trip (binary)" Compressor.Huffman binary_gen

let test_roundtrip_edge_cases () =
  let cases =
    [
      "";
      "a";
      "aa";
      String.make 10_000 'z';
      Leakdetect_util.Strutil.repeat "abc" 3000;
      String.init 2000 (fun i -> Char.chr (i mod 256));
      "GET /ad?imei=355021930123456&carrier=NTTdocomo HTTP/1.1";
    ]
  in
  List.iter
    (fun algo ->
      List.iter
        (fun s ->
          Alcotest.(check string)
            (Printf.sprintf "%s len=%d" (Compressor.name algo) (String.length s))
            s
            (Compressor.decompress algo (Compressor.compress algo s)))
        cases)
    Compressor.all

let test_lz77_window_boundary () =
  (* Repetitions just inside and just outside the 32 KiB window: the first
     must be representable as a match, the second must not — both must
     round-trip. *)
  let pattern = "SENTINEL-0123456789-SENTINEL" in
  let inside =
    pattern ^ String.make (Lz77.window_size - String.length pattern - 7) 'x' ^ pattern
  in
  let outside = pattern ^ String.make (Lz77.window_size + 64) 'y' ^ pattern in
  Alcotest.(check string) "inside window" inside (Lz77.decompress (Lz77.compress inside));
  Alcotest.(check string) "outside window" outside (Lz77.decompress (Lz77.compress outside));
  Alcotest.(check bool) "in-window repetition compresses better" true
    (Lz77.compressed_length_bits inside
    < Lz77.compressed_length_bits inside + 8 * String.length pattern)

let test_lz77_max_match_runs () =
  (* Runs longer than max_match force chained match tokens. *)
  List.iter
    (fun n ->
      let s = String.make n 'q' in
      Alcotest.(check string) (Printf.sprintf "run of %d" n) s
        (Lz77.decompress (Lz77.compress s)))
    [ Lz77.max_match; Lz77.max_match + 1; (2 * Lz77.max_match) + 3; 5000 ]

let test_lz77_overlapping_match () =
  (* "abab..." uses a distance-2 match copied forward over itself. *)
  let s = Leakdetect_util.Strutil.repeat "ab" 500 in
  Alcotest.(check string) "overlap copy" s (Lz77.decompress (Lz77.compress s));
  Alcotest.(check bool) "compresses hard" true
    (Lz77.compressed_length_bits s < (8 * String.length s) / 10)

let test_lzw_dictionary_reset () =
  (* Enough distinct material to overflow the 16-bit dictionary. *)
  let big =
    String.concat ""
      (List.init 30_000 (fun i -> Printf.sprintf "%x|" (i * 2654435761)))
  in
  Alcotest.(check int) "long input round-trips" (String.length big)
    (String.length (Lzw.decompress (Lzw.compress big)))

let test_compression_effectiveness () =
  (* Repetitive input must compress well under the dictionary coders. *)
  let s = Leakdetect_util.Strutil.repeat "banana-phone!" 200 in
  let raw_bits = 8 * String.length s in
  Alcotest.(check bool) "lz77 compresses" true (Lz77.compressed_length_bits s < raw_bits / 5);
  Alcotest.(check bool) "lzw compresses" true (Lzw.compressed_length_bits s < raw_bits / 2);
  Alcotest.(check bool) "huffman compresses a little" true
    (Huffman.compressed_length_bits s < raw_bits)

let prop_length_bits_consistent =
  QCheck.Test.make ~name:"declared bit length bounds actual bytes" ~count:200
    (QCheck.make ascii_gen) (fun s ->
      List.for_all
        (fun algo ->
          let bits = Compressor.length_bits algo s in
          let bytes = String.length (Compressor.compress algo s) in
          (* contents pads to the next byte *)
          bytes = (bits + 7) / 8)
        Compressor.all)

(* --- LZ77 length path ---
   [compressed_length_bits] counts the same greedy parse [compress] emits,
   on match-finder scratch reused per domain.  Inputs: random bytes,
   low-entropy strings (alphabet of 1-4 letters, which drive max-match
   runs and long chains, sometimes past the 32 KiB window) and HTTP fields
   from a generated trace, alone or concatenated as NCD's C(xy) sees them. *)

let trace_fields =
  lazy
    (Leakdetect_android.Workload.generate ~seed:3 ~scale:0.01 ()
    |> Leakdetect_android.Workload.packets
    |> Array.to_list
    |> List.concat_map (fun (p : Leakdetect_http.Packet.t) ->
           let c = p.Leakdetect_http.Packet.content in
           Leakdetect_http.Packet.[ c.request_line; c.cookie; c.body ])
    |> Array.of_list)

let lz77_input_gen =
  let open QCheck.Gen in
  let low_entropy max_len =
    int_range 1 4 >>= fun k ->
    string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound (k - 1))) (0 -- max_len)
  in
  let field = map (fun i -> let f = Lazy.force trace_fields in f.(i mod Array.length f)) nat in
  frequency
    [ (3, binary_gen);
      (3, low_entropy 2000);
      (1, low_entropy 70_000);
      (1, map2 (fun n c -> String.make n c) (int_range 250 1100) printable);
      (3, field);
      (3, map2 ( ^ ) field field) ]

let lz77_input = QCheck.make ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s)) lz77_input_gen

let prop_lz77_length_matches_bytes =
  QCheck.Test.make ~name:"lz77 length = compressed bytes" ~count:300 lz77_input (fun s ->
      (Lz77.compressed_length_bits s + 7) / 8 = String.length (Lz77.compress s))

let prop_lz77_roundtrip_mixed =
  roundtrip_prop "lz77 round-trip (mixed inputs)" Compressor.Lz77 lz77_input_gen

(* A fresh domain starts from fresh scratch, so any dependence on what this
   domain compressed before (stale head entries, a [prev] buffer grown by a
   longer input) would show as a difference. *)
let prop_lz77_scratch_reuse =
  QCheck.Test.make ~name:"lz77 lengths independent of call history" ~count:40
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map (fun s -> string_of_int (String.length s)) l))
       QCheck.Gen.(list_size (2 -- 8) lz77_input_gen))
    (fun inputs ->
      let reused = List.map Lz77.compressed_length_bits inputs in
      let fresh =
        Domain.join (Domain.spawn (fun () -> List.map Lz77.compressed_length_bits (List.rev inputs)))
      in
      reused = List.rev fresh)

let prop_lz77_parallel_map =
  QCheck.Test.make ~name:"lz77 lengths at 2 domains = sequential" ~count:10
    (QCheck.make QCheck.Gen.(array_size (8 -- 40) lz77_input_gen))
    (fun inputs ->
      let seq = Array.map (Compressor.length_bits Compressor.Lz77) inputs in
      Leakdetect_parallel.Pool.with_pool 2 (fun pool ->
          Leakdetect_parallel.Pool.parallel_map_array ~pool ~chunk:1
            (Compressor.length_bits Compressor.Lz77) inputs)
      = seq)

let test_corrupt_stream () =
  (* Truncation must raise, not loop or return garbage silently. *)
  let c = Lz77.compress "hello hello hello hello" in
  let truncated = String.sub c 0 (String.length c - 2) in
  Alcotest.check_raises "truncated lz77"
    (Invalid_argument "Lz77.decompress: truncated stream") (fun () ->
      ignore (Lz77.decompress truncated));
  let lzw = Lzw.compress "the quick brown fox jumps over the lazy dog" in
  Alcotest.check_raises "truncated lzw"
    (Invalid_argument "Lzw.decompress: truncated stream") (fun () ->
      ignore (Lzw.decompress (String.sub lzw 0 (String.length lzw - 3))));
  let huff = Huffman.compress "the quick brown fox" in
  Alcotest.check_raises "truncated huffman"
    (Invalid_argument "Huffman.decompress: truncated stream") (fun () ->
      ignore (Huffman.decompress (String.sub huff 0 (String.length huff - 2))))

let test_huffman_code_lengths () =
  let lengths = Huffman.code_lengths "aaaabbbcc" in
  Alcotest.(check bool) "frequent symbol gets shortest code" true
    (lengths.(Char.code 'a') <= lengths.(Char.code 'b'));
  Alcotest.(check int) "absent symbol has no code" 0 lengths.(Char.code 'z');
  let single = Huffman.code_lengths "aaaa" in
  Alcotest.(check int) "single-symbol alphabet gets 1 bit" 1 single.(Char.code 'a')

(* --- NCD --- *)

let test_ncd_range_and_identity () =
  let cache = Compressor.Cache.create Compressor.Lz77 in
  let ncd = Compressor.Cache.ncd cache in
  Alcotest.(check (float 1e-9)) "empty strings" 0. (ncd "" "");
  let self = ncd "abcabcabc" "abcabcabc" in
  Alcotest.(check bool) "self distance small" true (self < 0.3);
  let x = "GET /ads?android_id=3b2f&fmt=json" in
  let y = "completely unrelated PQRSTUVWXYZ 0987654321 zzz" in
  Alcotest.(check bool) "unrelated distance large" true (ncd x y > 0.5)

let prop_ncd_bounds =
  QCheck.Test.make ~name:"ncd stays in [0,1]" ~count:200
    (QCheck.make QCheck.Gen.(pair ascii_gen ascii_gen))
    (fun (x, y) ->
      let cache = Compressor.Cache.create Compressor.Lz77 in
      let d = Compressor.Cache.ncd cache x y in
      d >= 0. && d <= 1.)

let test_ncd_discrimination () =
  (* Same-module packets must be closer than cross-module packets —
     the property the whole clustering step relies on. *)
  let cache = Compressor.Cache.create Compressor.Lz77 in
  let a1 = "GET /ad/sdk/img?aid=jp.co.app1&imei=355021930123456&size=320x50 HTTP/1.1" in
  let a2 = "GET /ad/sdk/img?aid=jp.co.app2&imei=355021930123456&size=320x50 HTTP/1.1" in
  let b = "POST /aap.do HTTP/1.1" in
  let within = Compressor.Cache.ncd cache a1 a2 in
  let across = Compressor.Cache.ncd cache a1 b in
  Alcotest.(check bool) "within < across" true (within < across)

let test_cache_stats () =
  let cache = Compressor.Cache.create Compressor.Lzw in
  ignore (Compressor.Cache.length_bits cache "abc");
  ignore (Compressor.Cache.length_bits cache "abc");
  ignore (Compressor.Cache.length_bits cache "def");
  let st = Compressor.Cache.stats cache in
  Alcotest.(check int) "hits" 1 st.Compressor.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Compressor.Cache.misses

let test_pair_counters () =
  (* C(xy) is computed on every call (no pair table); [pair_misses] counts
     those computations and [pair_hits] stays 0. *)
  let cache = Compressor.Cache.create Compressor.Lz77 in
  let x = "GET /ad/sdk?imei=355021930123456" and y = "POST /track HTTP/1.1" in
  let d = Compressor.Cache.ncd cache x y in
  Alcotest.(check (float 0.)) "order-insensitive" d (Compressor.Cache.ncd cache y x);
  ignore (Compressor.Cache.ncd cache "" "");
  let st = Compressor.Cache.stats cache in
  Alcotest.(check int) "pair computations" 2 st.Compressor.Cache.pair_misses;
  Alcotest.(check int) "pair hits" 0 st.Compressor.Cache.pair_hits;
  Alcotest.(check int) "singletons cached" 2 (Compressor.Cache.size cache)

let test_compressor_names () =
  List.iter
    (fun algo ->
      Alcotest.(check (option string))
        (Compressor.name algo) (Some (Compressor.name algo))
        (Option.map Compressor.name (Compressor.of_name (Compressor.name algo))))
    Compressor.all;
  Alcotest.(check bool) "unknown name" true (Compressor.of_name "zstd" = None)

let suite =
  [
    ( "compress.bitio",
      [
        Alcotest.test_case "basic fields" `Quick test_bitio_basic;
        Alcotest.test_case "end of input" `Quick test_bitio_end_of_input;
        qtest prop_bitio_roundtrip;
      ] );
    ( "compress.roundtrip",
      [
        Alcotest.test_case "edge cases (all algos)" `Quick test_roundtrip_edge_cases;
        Alcotest.test_case "lz77 window boundary" `Quick test_lz77_window_boundary;
        Alcotest.test_case "lz77 max-match runs" `Quick test_lz77_max_match_runs;
        Alcotest.test_case "lz77 overlapping match" `Quick test_lz77_overlapping_match;
        Alcotest.test_case "lzw dictionary reset" `Quick test_lzw_dictionary_reset;
        Alcotest.test_case "effectiveness" `Quick test_compression_effectiveness;
        Alcotest.test_case "corrupt stream" `Quick test_corrupt_stream;
        Alcotest.test_case "huffman code lengths" `Quick test_huffman_code_lengths;
        qtest prop_lz77_ascii;
        qtest prop_lz77_binary;
        qtest prop_lzw_ascii;
        qtest prop_lzw_binary;
        qtest prop_huffman_ascii;
        qtest prop_huffman_binary;
        qtest prop_length_bits_consistent;
      ] );
    ( "compress.lz77",
      [
        qtest prop_lz77_length_matches_bytes;
        qtest prop_lz77_roundtrip_mixed;
        qtest prop_lz77_scratch_reuse;
        qtest prop_lz77_parallel_map;
      ] );
    ( "compress.ncd",
      [
        Alcotest.test_case "range and identity" `Quick test_ncd_range_and_identity;
        Alcotest.test_case "discrimination" `Quick test_ncd_discrimination;
        Alcotest.test_case "cache stats" `Quick test_cache_stats;
        Alcotest.test_case "pair counters" `Quick test_pair_counters;
        Alcotest.test_case "algorithm names" `Quick test_compressor_names;
        qtest prop_ncd_bounds;
      ] );
  ]
