type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

type response = { code : int; content_type : string; body : string }

let reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | code -> if code < 400 then Printf.sprintf "Status %d" code else "Error"

(* Find "\r\n\r\n" in [buf]; scanning resumes a few bytes before the old
   length so a terminator split across reads is still found. *)
let find_terminator buf ~from =
  let s = Buffer.contents buf in
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
      Some i
    else go (i + 1)
  in
  go (max 0 (from - 3))

let split_lines s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let n = String.length line in
         if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      let key = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      Some (key, value)

let parse_head head =
  match split_lines head with
  | [] -> Error "empty request head"
  | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; target; version ]
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
          let path =
            match String.index_opt target '?' with
            | Some q -> String.sub target 0 q
            | None -> target
          in
          if path = "" || path.[0] <> '/' then Error "bad request target"
          else
            let headers = List.filter_map parse_header_line header_lines in
            Ok (String.uppercase_ascii meth, path, headers)
      | _ -> Error "malformed request line")

let read_request ?(max_header_bytes = 16 * 1024) ?(max_body_bytes = 1024 * 1024) fd =
  let chunk = Bytes.create 4096 in
  let buf = Buffer.create 512 in
  (* Phase 1: accumulate until the blank line that ends the headers.
     [scanned] is the buffer length before the latest read — the scan
     resumes a few bytes before it so a terminator split across reads is
     still found. *)
  let rec read_head scanned =
    match find_terminator buf ~from:scanned with
    | Some i -> Ok i
    | None ->
        if Buffer.length buf > max_header_bytes then Error "request head too large"
        else begin
          let before = Buffer.length buf in
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error "connection closed before headers completed"
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read_head before
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "read: %s" (Unix.error_message e))
        end
  in
  match read_head 0 with
  | Error _ as e -> e
  | Ok head_end -> (
      let all = Buffer.contents buf in
      let head = String.sub all 0 head_end in
      let rest = String.sub all (head_end + 4) (String.length all - head_end - 4) in
      match parse_head head with
      | Error _ as e -> e
      | Ok (meth, path, headers) -> (
          let content_length =
            match List.assoc_opt "content-length" headers with
            | None -> Ok 0
            | Some v -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n >= 0 -> Ok n
                | _ -> Error "bad Content-Length")
          in
          match content_length with
          | Error _ as e -> e
          | Ok len when len > max_body_bytes -> Error "request body too large"
          | Ok len ->
              let body = Buffer.create (min len 4096) in
              Buffer.add_string body rest;
              let rec read_body () =
                if Buffer.length body >= len then
                  Ok (String.sub (Buffer.contents body) 0 len)
                else begin
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> Error "connection closed before body completed"
                  | n ->
                      Buffer.add_subbytes body chunk 0 n;
                      read_body ()
                  | exception Unix.Unix_error (e, _, _) ->
                      Error (Printf.sprintf "read: %s" (Unix.error_message e))
                end
              in
              (match read_body () with
              | Error _ as e -> e
              | Ok body -> Ok { meth; path; headers; body })))

(* Best-effort: a peer that went away mid-exchange is not an error here. *)
let send fd s = try Pi_obs.Fs.write_all fd s with Unix.Unix_error _ -> ()

let write_response fd { code; content_type; body } =
  send fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       code (reason code) content_type (String.length body) body)

let request ?(timeout = 30.0) ?(headers = []) ~host ~port ~meth ~path ?(body = "") () =
  match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
  | [] -> Error (Printf.sprintf "cannot resolve %s" host)
  | ai :: _ -> (
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      match
        Fun.protect ~finally (fun () ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
            Unix.connect fd ai.Unix.ai_addr;
            let extra =
              String.concat ""
                (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
              ^ if body = "" then "" else "Content-Type: application/json\r\n"
            in
            send fd
              (Printf.sprintf "%s %s HTTP/1.1\r\nHost: %s\r\n%sContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                 meth path host extra (String.length body) body);
            let buf = Buffer.create 1024 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
            in
            drain ();
            Buffer.contents buf)
      with
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | raw -> (
          (* Split the status line and the close-delimited body. *)
          match String.index_opt raw '\n' with
          | None -> Error "empty response"
          | Some _ -> (
              let code =
                match String.split_on_char ' ' raw with
                | _http :: code :: _ -> int_of_string_opt code
                | _ -> None
              in
              match code with
              | None -> Error "malformed status line"
              | Some code -> (
                  let rec find_sep i =
                    if i + 3 >= String.length raw then None
                    else if
                      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
                      && raw.[i + 3] = '\n'
                    then Some (i + 4)
                    else find_sep (i + 1)
                  in
                  match find_sep 0 with
                  | None -> Error "truncated response"
                  | Some start ->
                      Ok (code, String.sub raw start (String.length raw - start))))))
