type record = { packet : Packet.t; app_id : int; labels : string list }

type on_error = [ `Fail | `Skip ]
type skipped = { skipped : int; sample : (int * string) list }

let no_skips = { skipped = 0; sample = [] }
let sample_limit = 5

let add_skip s lineno err =
  {
    skipped = s.skipped + 1;
    sample =
      (if List.length s.sample < sample_limit then s.sample @ [ (lineno, err) ]
       else s.sample);
  }

let escape_field s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_field s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec loop i =
    if i = n then Some (Buffer.contents buf)
    else if s.[i] = '\\' then
      if i + 1 = n then None
      else (
        match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'; loop (i + 2)
        | 't' -> Buffer.add_char buf '\t'; loop (i + 2)
        | 'n' -> Buffer.add_char buf '\n'; loop (i + 2)
        | 'r' -> Buffer.add_char buf '\r'; loop (i + 2)
        | _ -> None)
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

let record_to_line r =
  let { Packet.dst; content } = r.packet in
  String.concat "\t"
    [
      string_of_int r.app_id;
      Leakdetect_net.Ipv4.to_string dst.Packet.ip;
      string_of_int dst.Packet.port;
      escape_field dst.Packet.host;
      escape_field content.Packet.request_line;
      escape_field content.Packet.cookie;
      escape_field content.Packet.body;
      String.concat "," r.labels;
    ]

let record_of_line line =
  match String.split_on_char '\t' line with
  | [ app_id_s; ip_s; port_s; host_s; rline_s; cookie_s; body_s; labels_s ] -> (
    let field name v =
      match unescape_field v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "bad escape in %s field" name)
    in
    match
      ( int_of_string_opt app_id_s,
        Leakdetect_net.Ipv4.of_string ip_s,
        int_of_string_opt port_s,
        field "host" host_s,
        field "request-line" rline_s,
        field "cookie" cookie_s,
        field "body" body_s )
    with
    | Some app_id, Some ip, Some port, Ok host, Ok request_line, Ok cookie, Ok body ->
      let labels = if labels_s = "" then [] else String.split_on_char ',' labels_s in
      Ok
        {
          packet = Packet.v ~ip ~port ~host ~request_line ~cookie ~body;
          app_id;
          labels;
        }
    | None, _, _, _, _, _, _ -> Error "bad app id"
    | _, None, _, _, _, _, _ -> Error "bad ip"
    | _, _, None, _, _, _, _ -> Error "bad port"
    | _, _, _, (Error _ as e), _, _, _ | _, _, _, _, (Error _ as e), _, _
    | _, _, _, _, _, (Error _ as e), _ | _, _, _, _, _, _, (Error _ as e) ->
      (match e with Error m -> Error m | Ok _ -> assert false))
  | fields -> Error (Printf.sprintf "expected 8 fields, got %d" (List.length fields))

let save path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (record_to_line r);
          output_char oc '\n')
        records)

let with_input ?(binary = false) path f =
  match (if binary then open_in_bin else open_in) path with
  | exception Sys_error e -> Error e
  | ic -> (
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    try f ic with Sys_error e -> Error (path ^ ": " ^ e))

let fold ?(on_error = `Fail) path ~init ~f =
  with_input path (fun ic ->
      let rec loop lineno acc skips =
        match input_line ic with
        | exception End_of_file -> Ok (acc, skips)
        | line -> (
          match record_of_line line with
          | Ok r -> loop (lineno + 1) (f acc r) skips
          | Error e -> (
            match on_error with
            | `Fail -> Error (Printf.sprintf "line %d: %s" lineno e)
            | `Skip -> loop (lineno + 1) acc (add_skip skips lineno e)))
      in
      loop 1 init no_skips)

let load ?on_error path =
  Result.map
    (fun (acc, skips) -> (List.rev acc, skips))
    (fold ?on_error path ~init:[] ~f:(fun acc r -> r :: acc))

let iter ?on_error path ~f =
  Result.map snd (fold ?on_error path ~init:() ~f:(fun () r -> f r))
