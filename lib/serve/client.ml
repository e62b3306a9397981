module J = Pi_obs.Json

type conn = { host : string; port : int }

let resolve ?port ~state_dir () =
  match port with
  | Some port -> Ok { host = "127.0.0.1"; port }
  | None -> (
      let path = Filename.concat state_dir "serve.json" in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ ->
          Error
            (Printf.sprintf "no daemon port file at %s (is the daemon running?)" path)
      | contents -> (
          match J.parse contents with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok doc -> (
              match J.member "port" doc with
              | J.Int port -> Ok { host = "127.0.0.1"; port }
              | _ -> Error (Printf.sprintf "%s: no \"port\" field" path))))

let get conn path = Http.request ~host:conn.host ~port:conn.port ~meth:"GET" ~path ()

let wait_ready ?(attempts = 50) conn =
  let rec go n =
    match get conn "/readyz" with
    | Ok (200, _) -> Ok ()
    | _ when n > 1 ->
        Unix.sleepf 0.1;
        go (n - 1)
    | Ok (code, _) -> Error (Printf.sprintf "daemon not ready: /readyz is %d" code)
    | Error msg -> Error (Printf.sprintf "daemon not reachable: %s" msg)
  in
  if attempts < 1 then invalid_arg "Client.wait_ready: attempts < 1" else go attempts

(* 2xx bodies parse into the acknowledgement document; anything else is an
   error carrying the server's message when one was sent. *)
let expect_json = function
  | Error msg -> Error msg
  | Ok (code, body) when code >= 200 && code < 300 -> (
      match J.parse body with
      | Ok json -> Ok json
      | Error msg -> Error (Printf.sprintf "malformed daemon response: %s" msg))
  | Ok (code, body) -> (
      let detail =
        match Result.map (J.member "error") (J.parse body) with
        | Ok (J.String msg) -> msg
        | _ -> String.trim body
      in
      match detail with
      | "" -> Error (Printf.sprintf "HTTP %d %s" code (Http.reason code))
      | detail -> Error (Printf.sprintf "HTTP %d: %s" code detail))

let metrics conn = expect_json (get conn "/metrics.json")


let trace conn ~id =
  match get conn (Printf.sprintf "/api/jobs/%s/trace" id) with
  | Error msg -> Error msg
  | Ok (200, body) -> Ok body
  | Ok (code, body) -> (
      match expect_json (Ok (code, body)) with
      | Error msg -> Error msg
      | Ok _ -> Error (Printf.sprintf "HTTP %d" code))

let submit ?client conn ~body =
  let headers = match client with None -> [] | Some c -> [ ("X-Client", c) ] in
  expect_json
    (Http.request ~headers ~host:conn.host ~port:conn.port ~meth:"POST"
       ~path:"/api/jobs" ~body ())

let status conn ~id = expect_json (get conn (Printf.sprintf "/api/jobs/%s" id))

let result conn ~id =
  match get conn (Printf.sprintf "/api/jobs/%s/result" id) with
  | Error msg -> Error msg
  | Ok (200, body) -> Ok body
  | Ok (code, body) -> (
      match expect_json (Ok (code, body)) with
      | Error msg -> Error msg
      | Ok _ -> Error (Printf.sprintf "HTTP %d" code))

let wait_job ?(poll_interval = 0.2) ?(timeout = 300.0) conn ~id =
  let deadline = Pi_obs.Clock.now () +. timeout in
  let rec go () =
    match status conn ~id with
    | Error msg -> Error msg
    | Ok json -> (
        let field name = match J.member name json with J.String s -> Some s | _ -> None in
        match field "status" with
        | Some "done" -> result conn ~id
        | Some "failed" ->
            Error
              (Printf.sprintf "job %s failed: %s" id
                 (Option.value (field "error") ~default:"unknown error"))
        | Some ("queued" | "running") ->
            if Pi_obs.Clock.now () > deadline then
              Error (Printf.sprintf "timed out waiting for job %s" id)
            else begin
              Unix.sleepf poll_interval;
              go ()
            end
        | _ -> Error (Printf.sprintf "job %s: unrecognized status document" id))
  in
  go ()
