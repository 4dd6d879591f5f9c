module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Leak_error = Leakdetect_util.Leak_error
module Crc32 = Leakdetect_util.Crc32

type change = Add of Signature.t | Retire of int

type entry = { version : int; change : change }

let change_to_string = function
  | Add s -> Printf.sprintf "add #%d" s.Signature.id
  | Retire id -> Printf.sprintf "retire #%d" id

let entry_to_line e =
  match e.change with
  | Add s -> Printf.sprintf "a\t%d\t%s" e.version (Signature_io.to_line s)
  | Retire id -> Printf.sprintf "r\t%d\t%d" e.version id

let entry_of_line line =
  match String.index_opt line '\t' with
  | None -> Error (Printf.sprintf "bad changelog line %S" line)
  | Some i -> (
    let tag = String.sub line 0 i in
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    match String.index_opt rest '\t' with
    | None -> Error (Printf.sprintf "bad changelog line %S" line)
    | Some j -> (
      let version = String.sub rest 0 j in
      let payload = String.sub rest (j + 1) (String.length rest - j - 1) in
      match int_of_string_opt version with
      | None -> Error (Printf.sprintf "bad changelog version %S" version)
      | Some version when version <= 0 ->
        Error (Printf.sprintf "non-positive changelog version %d" version)
      | Some version -> (
        match tag with
        | "a" -> (
          match Signature_io.of_line payload with
          | Ok s -> Ok { version; change = Add s }
          | Error e ->
            Error ("bad changelog signature: " ^ Leak_error.to_string e))
        | "r" -> (
          match int_of_string_opt payload with
          | Some id when id >= 0 -> Ok { version; change = Retire id }
          | _ -> Error (Printf.sprintf "bad retire id %S" payload))
        | _ -> Error (Printf.sprintf "unknown changelog tag %S" tag))))

(* Sets are id-ascending lists; all updates preserve the invariant. *)

let apply_change set change =
  match change with
  | Add s ->
    let id = s.Signature.id in
    let rec ins = function
      | [] -> [ s ]
      | x :: rest when x.Signature.id < id -> x :: ins rest
      | x :: rest when x.Signature.id = id -> s :: rest
      | rest -> s :: rest
    in
    ins set
  | Retire id -> List.filter (fun x -> x.Signature.id <> id) set

let canonical set =
  let sorted =
    List.sort (fun a b -> compare a.Signature.id b.Signature.id) set
  in
  String.concat "\n" (List.map Signature_io.to_line sorted)

let checksum_set set = Crc32.string (canonical set)

let wire_checksum ~version set =
  Crc32.string (string_of_int version ^ "\n" ^ canonical set)

type t = {
  mutable base_version : int;
  mutable base : Signature.t list;
  mutable rev_entries : entry list;  (* newest first *)
  mutable version : int;
  mutable set : Signature.t list;  (* current, id-ascending *)
  mutable next_id : int;
  sums : (int, int) Hashtbl.t;  (* version -> canonical-set CRC *)
  mutable head_wire : int option;  (* wire_checksum of the head, once asked *)
}

let create () =
  let sums = Hashtbl.create 64 in
  Hashtbl.replace sums 0 (checksum_set []);
  {
    base_version = 0;
    base = [];
    rev_entries = [];
    version = 0;
    set = [];
    next_id = 0;
    sums;
    head_wire = None;
  }

let version t = t.version
let horizon t = t.base_version
let next_id t = t.next_id
let current t = t.set
(* [sums] always holds the head: every path that moves [version] records it,
   and compaction only drops versions below the horizon. *)
let current_checksum t = Hashtbl.find t.sums t.version

let head_wire_checksum t =
  match t.head_wire with
  | Some sum -> sum
  | None ->
    let sum = wire_checksum ~version:t.version t.set in
    t.head_wire <- Some sum;
    sum

let checksum_at t v = Hashtbl.find_opt t.sums v
let entries t = List.rev t.rev_entries
let base t = t.base

let note_id t = function
  | Add s -> t.next_id <- max t.next_id (s.Signature.id + 1)
  | Retire _ -> ()

let append t change =
  t.version <- t.version + 1;
  t.set <- apply_change t.set change;
  t.head_wire <- None;
  note_id t change;
  let entry = { version = t.version; change } in
  t.rev_entries <- entry :: t.rev_entries;
  Hashtbl.replace t.sums t.version (checksum_set t.set);
  entry

let restore ~base_version ~base ~next_id ~entries =
  if base_version < 0 then Error "restore: negative base version"
  else if next_id < 0 then Error "restore: negative next id"
  else begin
    let t = create () in
    t.base_version <- base_version;
    t.base <- List.sort (fun a b -> compare a.Signature.id b.Signature.id) base;
    t.version <- base_version;
    t.set <- t.base;
    t.head_wire <- None;
    t.next_id <- next_id;
    List.iter (fun s -> note_id t (Add s)) t.base;
    Hashtbl.reset t.sums;
    Hashtbl.replace t.sums base_version (checksum_set t.set);
    let rec replay = function
      | [] -> Ok t
      | (e : entry) :: rest ->
        if e.version <> t.version + 1 then
          Error
            (Printf.sprintf "restore: entry version %d after %d" e.version
               t.version)
        else begin
          ignore (append t e.change);
          replay rest
        end
    in
    replay entries
  end

let since t v =
  if v < t.base_version || v > t.version then None
  else
    Some
      (List.filter (fun (e : entry) -> e.version > v) (List.rev t.rev_entries))

(* Checkpoints ascend from the first retained version in [interval]
   steps; the head is always the last checkpoint, so a digest is never
   empty and a head-only probe is [digest ~since:max_int].  Only sums the
   table still holds (>= horizon) are emitted — a divergence below the
   horizon is not localizable and the caller falls back to a snapshot. *)
let digest t ~since ~interval =
  if interval < 1 then invalid_arg "Changelog.digest: interval < 1";
  let lo = max since t.base_version in
  let rec collect v acc =
    if v >= t.version then acc
    else
      collect (v + interval)
        (match Hashtbl.find_opt t.sums v with
        | Some sum -> (v, sum) :: acc
        | None -> acc)
  in
  let head =
    match Hashtbl.find_opt t.sums t.version with
    | Some sum -> [ (t.version, sum) ]
    | None -> []
  in
  List.rev_append (collect lo []) head

let digest_to_body d =
  String.concat "\n"
    (List.map (fun (v, sum) -> Printf.sprintf "%d\t%s" v (Crc32.to_hex sum)) d)

let digest_of_body body =
  let lines = if body = "" then [] else String.split_on_char '\n' body in
  let rec loop prev acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match String.index_opt line '\t' with
      | None -> Error (Printf.sprintf "bad digest line %S" line)
      | Some i -> (
        let version = String.sub line 0 i in
        let sum = String.sub line (i + 1) (String.length line - i - 1) in
        match
          (int_of_string_opt version, int_of_string_opt ("0x" ^ sum))
        with
        | Some v, Some sum when v >= 0 && v > prev ->
          loop v ((v, sum) :: acc) rest
        | Some v, Some _ when v <= prev ->
          Error (Printf.sprintf "digest versions not ascending at %d" v)
        | _ -> Error (Printf.sprintf "bad digest line %S" line)))
  in
  loop (-1) [] lines

let compact t ~keep =
  let all = List.rev t.rev_entries in
  let n = List.length all in
  let keep = max 0 (min keep n) in
  let fold_n = n - keep in
  if fold_n > 0 then begin
    let folded = List.filteri (fun i _ -> i < fold_n) all in
    List.iter
      (fun e -> t.base <- apply_change t.base e.change)
      folded;
    t.base_version <- t.base_version + fold_n;
    t.rev_entries <-
      List.rev (List.filteri (fun i _ -> i >= fold_n) all);
    Hashtbl.iter
      (fun v _ -> if v < t.base_version then Hashtbl.remove t.sums v)
      (Hashtbl.copy t.sums)
  end
