(* Order statistics over float samples.  Every function copies before
   sorting, so callers keep their sample order. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

(* Linear interpolation between closest ranks (the numpy default):
   [percentile 0.5] is the median, [percentile 0.99] the p99. *)
let percentile p xs =
  check_nonempty "Stats.percentile" xs;
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: p outside [0, 1]";
  let a = sorted xs in
  let n = Array.length a in
  let r = p *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  let frac = r -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

(* Samples strictly above the [p] percentile: a tail percentile is only
   reported when at least ten samples lie beyond it. *)
let beyond p xs =
  let cut = percentile p xs in
  Array.fold_left (fun acc x -> if x > cut then acc + 1 else acc) 0 xs

(* Python's [statistics.quantiles(xs, n=4)] with its default "exclusive"
   method: the three cut points Q1, Q2, Q3. *)
let quartiles xs =
  if Array.length xs < 2 then invalid_arg "Stats.quartiles: fewer than 2 samples";
  let a = sorted xs in
  let n = Array.length a in
  let m = n + 1 in
  let cut i =
    (* j is clamped to [1, n-1] before delta is taken, as in CPython. *)
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

(* A growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let median t = median (to_array t)
end
