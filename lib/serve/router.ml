module J = Pi_obs.Json

type params = (string * string) list

type route = {
  meth : string;
  pattern : string;
  segments : string list;
  handler : params -> Http.request -> Http.response;
}

let segments_of path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let make meth pattern handler =
  { meth; pattern; segments = segments_of pattern; handler }

let get pattern handler = make "GET" pattern handler
let post pattern handler = make "POST" pattern handler

let json code value =
  { Http.code; content_type = "application/json"; body = J.to_string value ^ "\n" }

let text code body = { Http.code; content_type = "text/plain"; body }

let error code msg = json code (J.Obj [ ("error", J.String msg) ])

(* Match request segments against pattern segments; [":name"] binds. *)
let match_segments pattern_segs path_segs =
  let rec go bound = function
    | [], [] -> Some (List.rev bound)
    | p :: ps, s :: ss ->
        if String.length p > 0 && p.[0] = ':' then
          go ((String.sub p 1 (String.length p - 1), s) :: bound) (ps, ss)
        else if p = s then go bound (ps, ss)
        else None
    | _ -> None
  in
  go [] (pattern_segs, path_segs)

let dispatch routes req =
  let path_segs = segments_of req.Http.path in
  (* First pass: exact method+pattern match. Second: pattern matched but
     method did not — that is a 405, labelled with the pattern it hit. *)
  let rec find = function
    | [] -> None
    | r :: rest -> (
        match match_segments r.segments path_segs with
        | Some params when r.meth = req.Http.meth -> Some (`Hit (r, params))
        | Some _ -> (
            match find rest with
            | Some (`Hit _) as hit -> hit
            | _ -> Some (`Wrong_method r))
        | None -> find rest)
  in
  match find routes with
  | Some (`Hit (r, params)) -> (
      match r.handler params req with
      | resp -> (resp, r.pattern)
      | exception exn ->
          (error 500 (Printf.sprintf "internal error: %s" (Printexc.to_string exn)),
           r.pattern))
  | Some (`Wrong_method r) ->
      (error 405 (Printf.sprintf "%s not allowed on %s" req.Http.meth r.pattern),
       r.pattern)
  | None -> (error 404 (Printf.sprintf "no route for %s" req.Http.path), "*unmatched*")
