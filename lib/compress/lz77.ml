let min_match = 3
let max_match = 258
let window_size = 32768
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_chain = 64

let hash3 s i =
  let a = Char.code s.[i] and b = Char.code s.[i + 1] and c = Char.code s.[i + 2] in
  ((a * 2654435761) lxor (b * 40503) lxor (c * 65599)) land (hash_size - 1)

(* Match-finder scratch, one per domain.  [head] and [prev] hold positions
   offset by [base]: an entry is live for the current call iff it is
   [>= base], so advancing [base] past every position the previous call
   stored invalidates the whole table without refilling it. *)
type scratch = { head : int array; mutable prev : int array; mutable base : int }

let scratch_key =
  Domain.DLS.new_key (fun () -> { head = Array.make hash_size (-1); prev = [||]; base = 0 })

(* Greedy parse with a hash-chain over 3-byte prefixes, reporting each
   token to its caller: [literal c], or [copy dist len] for a match of
   [len] bytes starting [dist] bytes back.  The callbacks must not re-enter
   this module (the scratch is shared per domain). *)
let parse s ~literal ~copy =
  let n = String.length s in
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.prev < n then sc.prev <- Array.make n 0;
  let head = sc.head and prev = sc.prev and base = sc.base in
  sc.base <- base + n;
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    let best_len = ref 0 and best_pos = ref (-1) in
    if pos + min_match <= n then begin
      let limit = if n - pos < max_match then n - pos else max_match in
      let j = ref (head.(hash3 s pos) - base) and depth = ref 0 in
      (* Chain entries only get older, so the first one beyond the window
         ends the walk. *)
      while !j >= 0 && !depth < max_chain && pos - !j <= window_size && !best_len < max_match do
        let cand = !j in
        let k = ref 0 in
        while !k < limit && s.[cand + !k] = s.[pos + !k] do incr k done;
        if !k > !best_len then begin
          best_len := !k;
          best_pos := cand
        end;
        j := prev.(cand) - base;
        incr depth
      done
    end;
    let len = if !best_len >= min_match then !best_len else 1 in
    if len = 1 then literal s.[pos] else copy (pos - !best_pos) len;
    (* Register every consumed position so later matches can point here. *)
    for p = pos to pos + len - 1 do
      if p + min_match <= n then begin
        let h = hash3 s p in
        prev.(p) <- head.(h);
        head.(h) <- base + p
      end
    done;
    i := pos + len
  done

let compress s =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w (String.length s) 32;
  parse s
    ~literal:(fun c ->
      Bitio.Writer.add_bit w false;
      Bitio.Writer.add_bits w (Char.code c) 8)
    ~copy:(fun dist len ->
      Bitio.Writer.add_bit w true;
      Bitio.Writer.add_bits w (dist - 1) 15;
      Bitio.Writer.add_bits w (len - min_match) 8);
  Bitio.Writer.contents w

let compressed_length_bits s =
  let literals = ref 0 and matches = ref 0 in
  parse s ~literal:(fun _ -> incr literals) ~copy:(fun _ _ -> incr matches);
  32 + (9 * !literals) + (24 * !matches)

let decompress data =
  let r = Bitio.Reader.of_string data in
  try
    let total = Bitio.Reader.read_bits r 32 in
    let out = Buffer.create total in
    while Buffer.length out < total do
      if Bitio.Reader.read_bit r then begin
        let dist = Bitio.Reader.read_bits r 15 + 1 in
        let len = Bitio.Reader.read_bits r 8 + min_match in
        let start = Buffer.length out - dist in
        if start < 0 then invalid_arg "Lz77.decompress: distance before start";
        (* Byte-at-a-time copy: overlapping matches replicate correctly. *)
        for k = 0 to len - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
      end
      else Buffer.add_char out (Char.chr (Bitio.Reader.read_bits r 8))
    done;
    Buffer.contents out
  with Bitio.Reader.End_of_input -> invalid_arg "Lz77.decompress: truncated stream"
