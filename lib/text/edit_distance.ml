(* Int-typed: the polymorphic [Stdlib.min] compiles to a [caml_compare]
   call per DP cell. *)
let min (a : int) b = if a < b then a else b
let max (a : int) b = if a > b then a else b

let distance a b =
  (* Keep the shorter string as the row to bound memory. *)
  let a, b = if String.length a <= String.length b then (a, b) else (b, a) in
  let m = String.length a and n = String.length b in
  if m = 0 then n
  else begin
    let prev = Array.init (m + 1) (fun i -> i) in
    let cur = Array.make (m + 1) 0 in
    for j = 1 to n do
      cur.(0) <- j;
      for i = 1 to m do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(i) <- min (min (cur.(i - 1) + 1) (prev.(i) + 1)) (prev.(i - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let distance_bounded ~cutoff a b =
  if cutoff < 0 then invalid_arg "Edit_distance.distance_bounded: negative cutoff";
  let a, b = if String.length a <= String.length b then (a, b) else (b, a) in
  let m = String.length a and n = String.length b in
  if n - m > cutoff then None
  else begin
    let inf = max_int / 2 in
    let prev = Array.make (m + 1) inf in
    let cur = Array.make (m + 1) inf in
    for i = 0 to min m cutoff do prev.(i) <- i done;
    let exceeded = ref false in
    let j = ref 1 in
    while (not !exceeded) && !j <= n do
      Array.fill cur 0 (m + 1) inf;
      if !j <= cutoff then cur.(0) <- !j;
      let lo = max 1 (!j - cutoff) and hi = min m (!j + cutoff) in
      let row_min = ref inf in
      for i = lo to hi do
        let cost = if a.[i - 1] = b.[!j - 1] then 0 else 1 in
        let v = min (min (cur.(i - 1) + 1) (prev.(i) + 1)) (prev.(i - 1) + cost) in
        cur.(i) <- v;
        if v < !row_min then row_min := v
      done;
      if !j <= cutoff && cur.(0) < !row_min then row_min := cur.(0);
      if !row_min > cutoff then exceeded := true;
      Array.blit cur 0 prev 0 (m + 1);
      incr j
    done;
    if !exceeded then None
    else if prev.(m) <= cutoff then Some prev.(m)
    else None
  end

let normalized a b =
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 0.
  else float_of_int (distance a b) /. float_of_int (max la lb)
