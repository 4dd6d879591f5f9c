(* Observability registry.

   Design constraints, in order: the noop path must cost one branch; the
   hot update paths (counter add, histogram observe) must be lock-free so
   pool workers never serialize on instrumentation; exposition must be
   deterministic (sorted families, sorted series) so it can be golden
   tested.  Registration takes a per-registry mutex — it is rare and its
   cost is irrelevant.

   Spans use a domain-local stack: each domain nests its own spans, and a
   span finishing with an empty stack is a root.  Completed roots are the
   only span state shared across domains, appended under the mutex. *)

(* --- clock --- *)

module Clock = struct
  let last = Atomic.make 0

  let now_ns () =
    let t = int_of_float (Unix.gettimeofday () *. 1e9) in
    let rec max_into () =
      let prev = Atomic.get last in
      if t <= prev then prev
      else if Atomic.compare_and_set last prev t then t
      else max_into ()
    in
    max_into ()
end

(* --- spans --- *)

module Span = struct
  type t = {
    sname : string;
    sstart_ns : int;
    mutable sduration_ns : int;
    mutable schildren : t list;  (* newest first while building *)
  }

  let name s = s.sname
  let start_ns s = s.sstart_ns
  let duration_ns s = s.sduration_ns
  let children s = List.rev s.schildren

  let render span =
    let buf = Buffer.create 256 in
    let rec go indent s =
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %10.3f ms\n" indent
           (max 1 (32 - String.length indent))
           s.sname
           (float_of_int s.sduration_ns /. 1e6));
      List.iter (go (indent ^ "  ")) (children s)
    in
    go "" span;
    Buffer.contents buf
end

(* --- metric cells --- *)

(* Atomic float accumulation: read the boxed value, CAS it against the
   replacement.  compare_and_set uses physical equality, and we always pass
   back the exact box we read, so the loop is ABA-safe. *)
let float_add cell v =
  let rec loop () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then loop ()
  in
  loop ()

module Counter = struct
  type t = int Atomic.t option

  let inc = function None -> () | Some c -> Atomic.incr c

  let add t n =
    if n < 0 then invalid_arg "Obs.Counter.add: negative increment";
    match t with None -> () | Some c -> ignore (Atomic.fetch_and_add c n)

  let value = function None -> 0 | Some c -> Atomic.get c
end

module Gauge = struct
  type t = int Atomic.t option

  let set t v = match t with None -> () | Some c -> Atomic.set c v
  let value = function None -> 0 | Some c -> Atomic.get c
end

type hist = {
  upper : float array;  (* finite bounds, strictly increasing *)
  bucket_counts : int Atomic.t array;  (* same length as [upper] *)
  hsum : float Atomic.t;
  hcount : int Atomic.t;
}

module Histogram = struct
  type t = hist option

  let observe t v =
    match t with
    | None -> ()
    | Some h ->
      let n = Array.length h.upper in
      let rec bump i =
        if i < n then
          if v <= h.upper.(i) then Atomic.incr h.bucket_counts.(i) else bump (i + 1)
      in
      bump 0;
      float_add h.hsum v;
      Atomic.incr h.hcount

  let count = function None -> 0 | Some h -> Atomic.get h.hcount
  let sum = function None -> 0. | Some h -> Atomic.get h.hsum
end

let duration_buckets =
  [ 0.0001; 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10. ]

let ratio_buckets = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]

(* --- registry --- *)

type kind = K_counter | K_gauge | K_histogram

type series =
  | S_scalar of int Atomic.t  (* counter or gauge *)
  | S_hist of hist

type family = {
  fname : string;
  fhelp : string;
  fkind : kind;
  fbuckets : float array;  (* histogram families only *)
  mutable fseries : ((string * string) list * series) list;  (* label set -> cell *)
}

type active = {
  mutex : Mutex.t;
  families : (string, family) Hashtbl.t;
  mutable roots : Span.t list;  (* completed root spans, newest first *)
}

type t = Noop | Active of active

let noop = Noop
let create () = Active { mutex = Mutex.create (); families = Hashtbl.create 32; roots = [] }
let is_noop = function Noop -> true | Active _ -> false

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_histogram -> "histogram"

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

(* ':' is legal in metric names but not label names. *)
let valid_label_name s = valid_name s && not (String.contains s ':')

let check_labels labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Obs: bad label name %S" k))
    labels;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> if a = b then true else dup rest
    | _ -> false
  in
  if dup sorted then invalid_arg "Obs: duplicate label name";
  sorted

let intern reg ~kind ~help ~labels ~buckets name =
  if not (valid_name name) then invalid_arg (Printf.sprintf "Obs: bad metric name %S" name);
  let labels = check_labels labels in
  Mutex.lock reg.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg.mutex)
    (fun () ->
      let family =
        match Hashtbl.find_opt reg.families name with
        | Some f ->
          if f.fkind <> kind then
            invalid_arg
              (Printf.sprintf "Obs: %s already registered as a %s, not a %s" name
                 (kind_name f.fkind) (kind_name kind));
          f
        | None ->
          let f =
            { fname = name; fhelp = help; fkind = kind; fbuckets = buckets; fseries = [] }
          in
          Hashtbl.add reg.families name f;
          f
      in
      match List.assoc_opt labels family.fseries with
      | Some s -> s
      | None ->
        let s =
          match kind with
          | K_counter | K_gauge -> S_scalar (Atomic.make 0)
          | K_histogram ->
            S_hist
              {
                upper = family.fbuckets;
                bucket_counts = Array.init (Array.length family.fbuckets) (fun _ -> Atomic.make 0);
                hsum = Atomic.make 0.;
                hcount = Atomic.make 0;
              }
        in
        family.fseries <- (labels, s) :: family.fseries;
        s)

let scalar_cell reg ~kind ~help ~labels name =
  match intern reg ~kind ~help ~labels ~buckets:[||] name with
  | S_scalar c -> c
  | S_hist _ -> assert false

let counter t ?(help = "") ?(labels = []) name : Counter.t =
  match t with
  | Noop -> None
  | Active reg -> Some (scalar_cell reg ~kind:K_counter ~help ~labels name)

let gauge t ?(help = "") ?(labels = []) name : Gauge.t =
  match t with
  | Noop -> None
  | Active reg -> Some (scalar_cell reg ~kind:K_gauge ~help ~labels name)

let histogram t ?(help = "") ?(labels = []) ~buckets name : Histogram.t =
  match t with
  | Noop -> None
  | Active reg ->
    let b = Array.of_list buckets in
    if Array.length b = 0 then invalid_arg "Obs.histogram: no buckets";
    Array.iteri
      (fun i v ->
        if not (Float.is_finite v) then invalid_arg "Obs.histogram: non-finite bucket";
        if i > 0 && v <= b.(i - 1) then
          invalid_arg "Obs.histogram: buckets must be strictly increasing")
      b;
    (match intern reg ~kind:K_histogram ~help ~labels ~buckets:b name with
    | S_hist h -> Some h
    | S_scalar _ -> assert false)

(* --- spans --- *)

let span_stack : Span.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_span t name f =
  match t with
  | Noop -> f ()
  | Active reg ->
    let stack = Domain.DLS.get span_stack in
    let span =
      { Span.sname = name; sstart_ns = Clock.now_ns (); sduration_ns = 0; schildren = [] }
    in
    stack := span :: !stack;
    Fun.protect
      ~finally:(fun () ->
        span.Span.sduration_ns <- Clock.now_ns () - span.Span.sstart_ns;
        (match !stack with
        | top :: rest when top == span -> stack := rest
        | _ ->
          (* A child span leaked past its parent's close (should be
             impossible with Fun.protect); drop down to self-repair. *)
          stack := List.filter (fun s -> s != span) !stack);
        match !stack with
        | parent :: _ -> parent.Span.schildren <- span :: parent.Span.schildren
        | [] ->
          Mutex.lock reg.mutex;
          reg.roots <- span :: reg.roots;
          Mutex.unlock reg.mutex)
      f

let root_spans = function
  | Noop -> []
  | Active reg ->
    Mutex.lock reg.mutex;
    let roots = reg.roots in
    Mutex.unlock reg.mutex;
    List.rev roots

let reset_spans = function
  | Noop -> ()
  | Active reg ->
    Mutex.lock reg.mutex;
    reg.roots <- [];
    Mutex.unlock reg.mutex

(* --- introspection --- *)

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of { buckets : (float * int) list; sum : float; count : int }

type sample = {
  family : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

let samples = function
  | Noop -> []
  | Active reg ->
    Mutex.lock reg.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg.mutex)
      (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) reg.families []
        |> List.sort (fun a b -> compare a.fname b.fname)
        |> List.concat_map (fun f ->
               List.sort (fun (a, _) (b, _) -> compare a b) f.fseries
               |> List.map (fun (labels, series) ->
                      let value =
                        match (f.fkind, series) with
                        | K_counter, S_scalar c -> Counter_value (Atomic.get c)
                        | K_gauge, S_scalar c -> Gauge_value (Atomic.get c)
                        | K_histogram, S_hist h ->
                          Histogram_value
                            {
                              buckets =
                                Array.to_list
                                  (Array.mapi
                                     (fun i u -> (u, Atomic.get h.bucket_counts.(i)))
                                     h.upper);
                              sum = Atomic.get h.hsum;
                              count = Atomic.get h.hcount;
                            }
                        | _ -> assert false
                      in
                      { family = f.fname; help = f.fhelp; labels; value })))

(* --- Prometheus text exposition --- *)

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let label_block labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)
    ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen_header s.family) then begin
        Hashtbl.add seen_header s.family ();
        if s.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.family (escape_help s.help));
        let kind =
          match s.value with
          | Counter_value _ -> "counter"
          | Gauge_value _ -> "gauge"
          | Histogram_value _ -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.family kind)
      end;
      match s.value with
      | Counter_value v | Gauge_value v ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" s.family (label_block s.labels) v)
      | Histogram_value { buckets; sum; count } ->
        let cumulative = ref 0 in
        List.iter
          (fun (upper, c) ->
            cumulative := !cumulative + c;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.family
                 (label_block (s.labels @ [ ("le", float_str upper) ]))
                 !cumulative))
          buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" s.family
             (label_block (s.labels @ [ ("le", "+Inf") ]))
             count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" s.family (label_block s.labels) (float_str sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" s.family (label_block s.labels) count))
    (samples t);
  Buffer.contents buf
