(* pi_serve: WAL ledger crash semantics, the shared bounded queue, the
   HTTP layer, job identity, and an in-process daemon round trip.

   The crash tests enforce the ledger's contract directly on files: a torn
   tail (the half-written record a SIGKILL leaves) is detected, dropped and
   truncated; replay is idempotent; duplicate submit records (a client
   resubmitting after a crash-before-ack) collapse onto one job. *)

module J = Pi_obs.Json
module Ledger = Pi_serve.Ledger
module Http = Pi_serve.Http
module Router = Pi_serve.Router
module Jobs = Pi_serve.Jobs
module Server = Pi_serve.Server
module Client = Pi_serve.Client
module Queue = Pi_campaign.Scheduler.Queue

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pi_serve_test.%d.%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let record i = J.Obj [ ("record", J.String "submit"); ("n", J.Int i) ]

(* ---- ledger ------------------------------------------------------- *)

let test_ledger_roundtrip () =
  let path = Filename.concat (tmp_dir ()) "ledger.wal" in
  let ledger, replay = Ledger.open_ ~path in
  Alcotest.(check int) "fresh ledger is empty" 0 (List.length replay.Ledger.records);
  List.iter (fun i -> Ledger.append ledger (record i)) [ 1; 2; 3 ];
  Ledger.close ledger;
  let replay = Ledger.read ~path in
  Alcotest.(check int) "three records" 3 (List.length replay.Ledger.records);
  Alcotest.(check int) "no torn bytes" 0 replay.Ledger.torn_bytes;
  Alcotest.(check (list string)) "payloads survive verbatim"
    (List.map (fun i -> J.to_string (record i)) [ 1; 2; 3 ])
    (List.map J.to_string replay.Ledger.records)

let test_ledger_torn_tail () =
  let path = Filename.concat (tmp_dir ()) "ledger.wal" in
  let ledger, _ = Ledger.open_ ~path in
  List.iter (fun i -> Ledger.append ledger (record i)) [ 1; 2 ];
  Ledger.close ledger;
  let valid = (Ledger.read ~path).Ledger.valid_bytes in
  (* Simulate a SIGKILL mid-append: a record missing its newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "0123456789abcdef0123456789abcdef {\"torn\":";
  close_out oc;
  let replay = Ledger.read ~path in
  Alcotest.(check int) "torn tail keeps the valid prefix" 2
    (List.length replay.Ledger.records);
  Alcotest.(check bool) "torn bytes detected" true (replay.Ledger.torn_bytes > 0);
  Alcotest.(check int) "valid prefix unchanged" valid replay.Ledger.valid_bytes;
  (* Reading is idempotent — same file, same answer. *)
  let again = Ledger.read ~path in
  Alcotest.(check int) "replay is idempotent" 2 (List.length again.Ledger.records);
  (* open_ self-heals: the tail is truncated and appends continue cleanly. *)
  let ledger, healed = Ledger.open_ ~path in
  Alcotest.(check int) "open_ reports the survivors" 2
    (List.length healed.Ledger.records);
  Ledger.append ledger (record 3);
  Ledger.close ledger;
  let final = Ledger.read ~path in
  Alcotest.(check int) "append after heal lands on a clean boundary" 3
    (List.length final.Ledger.records);
  Alcotest.(check int) "healed file has no torn bytes" 0 final.Ledger.torn_bytes

let test_ledger_corrupt_record_ends_prefix () =
  let path = Filename.concat (tmp_dir ()) "ledger.wal" in
  let ledger, _ = Ledger.open_ ~path in
  List.iter (fun i -> Ledger.append ledger (record i)) [ 1; 2; 3 ];
  Ledger.close ledger;
  (* Flip one payload byte of the second record: its digest now fails, so
     the valid prefix is record 1 only — records after a corrupt one are
     untrusted even if they look intact. *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' contents in
  let mangled =
    match lines with
    | a :: b :: rest ->
        let b = Bytes.of_string b in
        Bytes.set b (Bytes.length b - 2) '!';
        String.concat "\n" (a :: Bytes.to_string b :: rest)
    | _ -> Alcotest.fail "expected three ledger lines"
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mangled);
  let replay = Ledger.read ~path in
  Alcotest.(check int) "corruption ends the valid prefix" 1
    (List.length replay.Ledger.records);
  Alcotest.(check bool) "rest counts as torn" true (replay.Ledger.torn_bytes > 0)

(* Two WAL records as an earlier release's [Ledger.append] wrote them: a
   client name with an escaped quote, newline and control character, and
   params with an integer, fractional floats, null and a bool. A daemon
   upgraded in place replays its old WAL: each line must read back to its
   record, and appending that record again must give the same bytes. *)
let legacy_wal =
  [
    "490797e2b2c92cb34093ec8e67457dd4 {\"record\":\"submit\",\"key\":\"5f0c9a\",\"client\":\"cli \\\"x\\\"\\n\\u0001\",\"params\":{\"kind\":\"measure\",\"benches\":[\"429.mcf\"],\"layouts\":4,\"max_err\":0.5,\"seed\":1,\"tiny\":1e-07,\"ts\":1760886945.123456,\"none\":null,\"flag\":true}}\n";
    "cf637c548acd7c3ffb167bb0291c3698 {\"record\":\"done\",\"key\":\"5f0c9a\"}\n";
  ]

let legacy_wal_records =
  [
    J.Obj
      [
        ("record", J.String "submit");
        ("key", J.String "5f0c9a");
        ("client", J.String "cli \"x\"\n\001");
        ( "params",
          J.Obj
            [
              ("kind", J.String "measure");
              ("benches", J.List [ J.String "429.mcf" ]);
              ("layouts", J.Int 4);
              ("max_err", J.Float 0.5);
              ("seed", J.Int 1);
              ("tiny", J.Float 1e-7);
              ("ts", J.Float 1760886945.123456);
              ("none", J.Null);
              ("flag", J.Bool true);
            ] );
      ];
    J.Obj [ ("record", J.String "done"); ("key", J.String "5f0c9a") ];
  ]

let test_ledger_legacy_format () =
  let dir = tmp_dir () in
  let legacy = Filename.concat dir "legacy.wal" in
  Out_channel.with_open_bin legacy (fun oc -> output_string oc (String.concat "" legacy_wal));
  let replay = Ledger.read ~path:legacy in
  Alcotest.(check int) "no torn bytes" 0 replay.Ledger.torn_bytes;
  Alcotest.(check bool) "legacy records read back" true
    (replay.Ledger.records = legacy_wal_records);
  let path = Filename.concat dir "rewritten.wal" in
  let ledger, _ = Ledger.open_ ~path in
  List.iter (Ledger.append ledger) replay.Ledger.records;
  Ledger.close ledger;
  Alcotest.(check string) "re-appending gives the legacy bytes" (String.concat "" legacy_wal)
    (In_channel.with_open_bin path In_channel.input_all)

(* ---- the shared bounded queue ------------------------------------- *)

let test_queue_capacity_and_force () =
  let q = Queue.create ~capacity:2 () in
  Alcotest.(check bool) "accepts under capacity" true (Queue.enqueue q 1);
  Alcotest.(check bool) "accepts at capacity" true (Queue.enqueue q 2);
  Alcotest.(check bool) "rejects over capacity" false (Queue.enqueue q 3);
  Alcotest.(check bool) "force bypasses capacity" true (Queue.enqueue ~force:true q 4);
  Alcotest.(check int) "depth counts forced items" 3 (Queue.depth q);
  Queue.close q;
  Alcotest.(check bool) "closed queue rejects even forced" false
    (Queue.enqueue ~force:true q 5);
  Alcotest.(check (option int)) "drains after close" (Some 1) (Queue.dequeue q);
  Alcotest.(check (option int)) "drains in order" (Some 2) (Queue.dequeue q);
  Alcotest.(check (option int)) "forced item drains too" (Some 4) (Queue.dequeue q);
  Alcotest.(check (option int)) "then None" None (Queue.dequeue q)

let test_queue_fairness () =
  (* One greedy client, one light client: round-robin interleaves them
     rather than serving the greedy backlog first. *)
  let q = Queue.create () in
  List.iter (fun i -> ignore (Queue.enqueue ~client:"greedy" q i : bool)) [ 1; 2; 3 ];
  ignore (Queue.enqueue ~client:"light" q 100 : bool);
  Queue.close q;
  let order =
    List.init 4 (fun _ ->
        match Queue.dequeue q with Some i -> i | None -> Alcotest.fail "early None")
  in
  Alcotest.(check (list int)) "round-robin across clients" [ 1; 100; 2; 3 ] order

(* ---- http --------------------------------------------------------- *)

let with_request_bytes bytes f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      let payload = Bytes.of_string bytes in
      ignore (Unix.write a payload 0 (Bytes.length payload) : int);
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      f b)

let test_http_parses_request () =
  with_request_bytes
    "POST /api/jobs?x=1 HTTP/1.1\r\nHost: h\r\nX-Client: ci\r\nContent-Length: 4\r\n\r\nbody"
    (fun fd ->
      match Http.read_request fd with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok req ->
          Alcotest.(check string) "method" "POST" req.Http.meth;
          Alcotest.(check string) "query stripped" "/api/jobs" req.Http.path;
          Alcotest.(check (option string)) "header lookup is case-insensitive"
            (Some "ci") (Http.header req "X-CLIENT");
          Alcotest.(check string) "body" "body" req.Http.body)

let test_http_rejects_hostile () =
  let cases =
    [
      ("no terminator", "GET /x HTTP/1.1\r\nHost: h\r\n");
      ("bad request line", "GET\r\n\r\n");
      ("bad content-length", "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
      ("relative target", "GET x HTTP/1.1\r\n\r\n");
    ]
  in
  List.iter
    (fun (name, bytes) ->
      with_request_bytes bytes (fun fd ->
          match Http.read_request fd with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: accepted" name))
    cases;
  (* Over-limit header block errors out instead of buffering forever. *)
  with_request_bytes
    ("GET /x HTTP/1.1\r\nBig: " ^ String.make 4096 'a' ^ "\r\n\r\n")
    (fun fd ->
      match Http.read_request ~max_header_bytes:512 fd with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversized head accepted")

(* ---- router ------------------------------------------------------- *)

let test_router_dispatch () =
  let routes =
    [
      Router.get "/api/jobs" (fun _ _ -> Router.text 200 "list");
      Router.get "/api/jobs/:id" (fun params _ ->
          Router.text 200 ("job " ^ List.assoc "id" params));
      Router.post "/api/jobs" (fun _ _ -> Router.text 202 "submitted");
    ]
  in
  let req meth path = { Http.meth; path; headers = []; body = "" } in
  let resp, label = Router.dispatch routes (req "GET" "/api/jobs/j-123") in
  Alcotest.(check int) "param route hit" 200 resp.Http.code;
  Alcotest.(check string) "param bound" "job j-123" resp.Http.body;
  Alcotest.(check string) "metrics label is the pattern" "/api/jobs/:id" label;
  let resp, _ = Router.dispatch routes (req "POST" "/api/jobs") in
  Alcotest.(check int) "method picks the route" 202 resp.Http.code;
  let resp, _ = Router.dispatch routes (req "DELETE" "/api/jobs") in
  Alcotest.(check int) "wrong method is 405" 405 resp.Http.code;
  let resp, label = Router.dispatch routes (req "GET" "/nope") in
  Alcotest.(check int) "unknown path is 404" 404 resp.Http.code;
  Alcotest.(check string) "404 label is bounded" "*unmatched*" label

(* ---- job identity ------------------------------------------------- *)

let test_jobs_parse_and_key () =
  let parse s =
    match J.parse s with
    | Ok json -> Jobs.parse json
    | Error msg -> Alcotest.failf "test body unparsable: %s" msg
  in
  (match parse {|{"kind":"measure","bench":"429.mcf","layouts":5,"quick":true}|} with
  | Error msg -> Alcotest.failf "valid submission rejected: %s" msg
  | Ok p ->
      Alcotest.(check (list string)) "bench resolved" [ "429.mcf" ] p.Jobs.benches;
      (* Key is insensitive to bench order and resilient across parses. *)
      let p2 =
        match
          parse {|{"kind":"measure","benches":["429.mcf"],"layouts":5,"quick":true}|}
        with
        | Ok p2 -> p2
        | Error msg -> Alcotest.failf "equivalent submission rejected: %s" msg
      in
      Alcotest.(check string) "equal params, equal key" (Jobs.key p) (Jobs.key p2);
      Alcotest.(check string) "id derives from key" (Jobs.id_of_key (Jobs.key p))
        (Jobs.id_of_key (Jobs.key p2)));
  (match parse {|{"kind":"cache_sweep","bench":"429.mcf","quick":true}|} with
  | Error msg -> Alcotest.failf "cache_sweep submission rejected: %s" msg
  | Ok p -> Alcotest.(check string) "cache_sweep kind round-trips" "cache_sweep"
              (Jobs.kind_name p.Jobs.kind));
  (match parse {|{"kind":"bundle","dir":"/tmp/some-bundle"}|} with
  | Error msg -> Alcotest.failf "bundle submission rejected: %s" msg
  | Ok p ->
      Alcotest.(check string) "bundle kind round-trips" "bundle"
        (Jobs.kind_name p.Jobs.kind);
      Alcotest.(check string) "dir captured" "/tmp/some-bundle" p.Jobs.dir;
      Alcotest.(check (list string)) "bundle job names no benches" [] p.Jobs.benches);
  List.iter
    (fun body ->
      match parse body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hostile submission accepted: %s" body)
    [
      {|{"kind":"warp","bench":"429.mcf"}|};
      {|{"kind":"measure","bench":"no.such.bench"}|};
      {|{"kind":"measure","bench":"429.mcf","layouts":100000}|};
      {|{"kind":"measure","bench":"429.mcf","evil":1}|};
      {|{"kind":"predict","benches":["429.mcf","433.milc"]}|};
      {|{"kind":"cache_sweep","benches":["429.mcf","433.milc"]}|};
      {|{"kind":"measure"}|};
      {|[1,2,3]|};
      {|{"kind":"bundle"}|};
      {|{"kind":"bundle","dir":""}|};
      {|{"kind":"bundle","dir":"/tmp/b","bench":"429.mcf"}|};
      {|{"kind":"measure","bench":"429.mcf","dir":"/tmp/b"}|};
    ]

let test_jobs_execute_bundle () =
  (* A bundle job re-verifies a run bundle on disk; an unreadable or
     tampered bundle is an ok:false result document, never a job error. *)
  let module Bundle = Pi_campaign.Bundle in
  let state = tmp_dir () in
  let cache = Pi_campaign.Obs_cache.create ~dir:(Filename.concat state "cache") in
  let dir = Filename.concat state "bundle" in
  ignore
    (Bundle.write ~dir ~kind:"campaign" ~label:"t" ~config_digest:"d"
       ~config_args:[] ~benches:[ "429.mcf" ] ~n_layouts:4 ~workers:1
       ~created_at:0.0 ~metrics:[]
       ~inputs:[ ("config.json", "{}\n") ]
       ~outputs:[ ("429.mcf.csv", "seed,cpi\n1,1.0\n") ]
       ()
      : Bundle.manifest);
  let params body =
    match J.parse body with
    | Ok json -> (
        match Jobs.parse json with
        | Ok p -> p
        | Error msg -> Alcotest.failf "params: %s" msg)
    | Error msg -> Alcotest.failf "json: %s" msg
  in
  let field doc name =
    match doc with J.Obj fields -> List.assoc_opt name fields | _ -> None
  in
  let p = params (Printf.sprintf {|{"kind":"bundle","dir":%S}|} dir) in
  (match Jobs.execute ~cache p with
  | Error msg -> Alcotest.failf "bundle job failed: %s" msg
  | Ok doc ->
      Alcotest.(check bool) "pristine bundle verifies" true
        (field doc "ok" = Some (J.Bool true));
      (match field doc "problems" with
      | Some (J.List []) -> ()
      | _ -> Alcotest.fail "expected an empty problems list"));
  (* Tamper, resubmit: same job shape, ok flips. *)
  Out_channel.with_open_bin (Filename.concat dir "outputs/429.mcf.csv")
    (fun oc -> Out_channel.output_string oc "forged\n");
  (match Jobs.execute ~cache p with
  | Error msg -> Alcotest.failf "tampered bundle job failed: %s" msg
  | Ok doc ->
      Alcotest.(check bool) "tampered bundle fails verification" true
        (field doc "ok" = Some (J.Bool false)));
  (* No bundle at all: still a deterministic ok:false document. *)
  let missing = params {|{"kind":"bundle","dir":"/nonexistent/bundle"}|} in
  match Jobs.execute ~cache missing with
  | Error msg -> Alcotest.failf "missing bundle crashed the job: %s" msg
  | Ok doc ->
      Alcotest.(check bool) "missing bundle is ok:false" true
        (field doc "ok" = Some (J.Bool false));
      Alcotest.(check bool) "reason carried in error field" true
        (match field doc "error" with Some (J.String _) -> true | _ -> false)

let test_jobs_execute_estimate () =
  (* An estimate never replays: on an empty cache it is an ok:false
     document naming its measure twin; once the twin has run (filling the
     cache), re-executing the estimate reproduces the twin's fit
     bit-for-bit. *)
  let state = tmp_dir () in
  let cache = Pi_campaign.Obs_cache.create ~dir:(Filename.concat state "cache") in
  let parse body =
    match J.parse body with
    | Ok json -> (
        match Jobs.parse json with
        | Ok p -> p
        | Error msg -> Alcotest.failf "params: %s" msg)
    | Error msg -> Alcotest.failf "json: %s" msg
  in
  let field doc name =
    match doc with J.Obj fields -> List.assoc_opt name fields | _ -> None
  in
  let est = parse {|{"kind":"estimate","bench":"429.mcf","layouts":3,"quick":true}|} in
  let meas = parse {|{"kind":"measure","bench":"429.mcf","layouts":3,"quick":true}|} in
  Alcotest.(check bool) "estimate and twin have distinct keys" true
    (Jobs.key est <> Jobs.key meas);
  (match Jobs.execute ~cache est with
  | Error msg -> Alcotest.failf "cold estimate failed: %s" msg
  | Ok doc ->
      Alcotest.(check bool) "cold cache estimates ok:false" true
        (field doc "ok" = Some (J.Bool false));
      Alcotest.(check bool) "cold estimate names its twin" true
        (field doc "refined_job"
        = Some (J.String (Jobs.id_of_key (Jobs.key meas)))));
  let refined_fit =
    match Jobs.execute ~cache meas with
    | Error msg -> Alcotest.failf "measure twin failed: %s" msg
    | Ok doc -> (
        match field doc "benches" with
        | Some (J.List [ bench ]) -> (
            match bench with
            | J.Obj fields -> (
                match List.assoc_opt "fit" fields with
                | Some fit -> fit
                | None -> Alcotest.fail "measure doc carries no fit")
            | _ -> Alcotest.fail "malformed bench doc")
        | _ -> Alcotest.fail "measure doc carries no benches")
  in
  match Jobs.execute ~cache est with
  | Error msg -> Alcotest.failf "warm estimate failed: %s" msg
  | Ok doc ->
      Alcotest.(check bool) "warm cache estimates ok:true" true
        (field doc "ok" = Some (J.Bool true));
      Alcotest.(check bool) "fully cached estimate is not stale" true
        (field doc "stale" = Some (J.Bool false));
      (match field doc "fit" with
      | Some fit ->
          Alcotest.(check string) "estimate fit converges on the refined fit"
            (J.to_string refined_fit) (J.to_string fit)
      | None -> Alcotest.fail "warm estimate carries no fit")

(* ---- in-process daemon round trip --------------------------------- *)

let test_server_roundtrip () =
  let state_dir = tmp_dir () in
  let options = { (Server.default_options ~state_dir) with Server.workers = 1 } in
  let server = Server.start options in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = { Client.host = "127.0.0.1"; port = Server.port server } in
      (match Client.wait_ready conn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "daemon not ready: %s" msg);
      let body = {|{"kind":"measure","bench":"429.mcf","layouts":4,"quick":true}|} in
      let id =
        match Client.submit ~client:"tests" conn ~body with
        | Error msg -> Alcotest.failf "submit failed: %s" msg
        | Ok (J.Obj fields) -> (
            match List.assoc_opt "id" fields with
            | Some (J.String id) -> id
            | _ -> Alcotest.fail "no id in acknowledgement")
        | Ok _ -> Alcotest.fail "malformed acknowledgement"
      in
      let result =
        match Client.wait_job ~timeout:120.0 conn ~id with
        | Ok doc -> doc
        | Error msg -> Alcotest.failf "job did not finish: %s" msg
      in
      (* Resubmission dedups onto the finished job and the result document
         is served from disk, byte-identical. *)
      (match Client.submit conn ~body with
      | Ok (J.Obj fields) ->
          Alcotest.(check bool) "duplicate flagged" true
            (List.assoc_opt "duplicate" fields = Some (J.Bool true))
      | Ok _ | Error _ -> Alcotest.fail "resubmission failed");
      (match Client.result conn ~id with
      | Ok again -> Alcotest.(check string) "result bytes are stable" result again
      | Error msg -> Alcotest.failf "result fetch failed: %s" msg);
      (* The ledger now carries submit + done; a restarted daemon must
         reconstruct the table without re-running anything. *)
      ());
  (* Restart on the same state: replay recognizes the persisted result. *)
  let server = Server.start options in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = { Client.host = "127.0.0.1"; port = Server.port server } in
      (match Client.wait_ready conn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "restarted daemon not ready: %s" msg);
      match Http.request ~host:conn.Client.host ~port:conn.Client.port ~meth:"GET"
              ~path:"/api/jobs" ()
      with
      | Ok (200, body) ->
          Alcotest.(check bool) "replayed job is done" true
            (let contains s sub =
               let n = String.length s and m = String.length sub in
               let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
               go 0
             in
             contains body {|"status":"done"|})
      | Ok (code, _) -> Alcotest.failf "job list returned %d" code
      | Error msg -> Alcotest.failf "job list failed: %s" msg)

let test_server_estimate_refinement () =
  (* One estimate submission produces two jobs: the instant estimate and
     the background measure twin it names in "refined_job" — both finish,
     under distinct ids, with distinct documents. *)
  let state_dir = tmp_dir () in
  let options = { (Server.default_options ~state_dir) with Server.workers = 1 } in
  let server = Server.start options in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = { Client.host = "127.0.0.1"; port = Server.port server } in
      (match Client.wait_ready conn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "daemon not ready: %s" msg);
      let body = {|{"kind":"estimate","bench":"429.mcf","layouts":3,"quick":true}|} in
      let id =
        match Client.submit ~client:"tests" conn ~body with
        | Error msg -> Alcotest.failf "submit failed: %s" msg
        | Ok (J.Obj fields) -> (
            match List.assoc_opt "id" fields with
            | Some (J.String id) -> id
            | _ -> Alcotest.fail "no id in acknowledgement")
        | Ok _ -> Alcotest.fail "malformed acknowledgement"
      in
      let doc =
        match Client.wait_job ~timeout:120.0 conn ~id with
        | Ok body -> (
            match J.parse body with
            | Ok doc -> doc
            | Error msg -> Alcotest.failf "estimate doc unparsable: %s" msg)
        | Error msg -> Alcotest.failf "estimate did not finish: %s" msg
      in
      let field name =
        match doc with J.Obj fields -> List.assoc_opt name fields | _ -> None
      in
      Alcotest.(check bool) "estimate doc has kind estimate" true
        (field "kind" = Some (J.String "estimate"));
      let refined_id =
        match field "refined_job" with
        | Some (J.String rid) -> rid
        | _ -> Alcotest.fail "estimate doc names no refined job"
      in
      Alcotest.(check bool) "twin runs under a distinct id" true (refined_id <> id);
      match Client.wait_job ~timeout:120.0 conn ~id:refined_id with
      | Error msg -> Alcotest.failf "background refinement did not finish: %s" msg
      | Ok body -> (
          match J.parse body with
          | Ok (J.Obj fields) ->
              Alcotest.(check bool) "refined doc is a measure document" true
                (List.assoc_opt "kind" fields = Some (J.String "measure"))
          | _ -> Alcotest.fail "refined doc unparsable"))

let test_server_replay_dedups_submits () =
  (* A crash between the WAL append and the client ack makes the client
     resubmit after restart; the identical params collapse onto one job.
     Forge that history: the same submit record appended twice. *)
  let state_dir = tmp_dir () in
  let params =
    match
      J.parse {|{"kind":"measure","bench":"429.mcf","layouts":4,"quick":true}|}
    with
    | Ok json -> (
        match Jobs.parse json with
        | Ok p -> p
        | Error msg -> Alcotest.failf "params: %s" msg)
    | Error msg -> Alcotest.failf "json: %s" msg
  in
  let submit_record =
    J.Obj
      [
        ("record", J.String "submit");
        ("key", J.String (Jobs.key params));
        ("client", J.String "anon");
        ("params", Jobs.canonical params);
      ]
  in
  let ledger, _ = Ledger.open_ ~path:(Filename.concat state_dir "ledger.wal") in
  Ledger.append ledger submit_record;
  Ledger.append ledger submit_record;
  Ledger.close ledger;
  let server = Server.start (Server.default_options ~state_dir) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = { Client.host = "127.0.0.1"; port = Server.port server } in
      (match Client.wait_ready conn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "daemon not ready: %s" msg);
      let id = Jobs.id_of_key (Jobs.key params) in
      match Client.wait_job ~timeout:120.0 conn ~id with
      | Error msg -> Alcotest.failf "replayed job did not run: %s" msg
      | Ok _ -> (
          match Http.request ~host:conn.Client.host ~port:conn.Client.port
                  ~meth:"GET" ~path:"/stats" ()
          with
          | Ok (200, body) -> (
              match J.parse body with
              | Ok (J.Obj fields) -> (
                  match List.assoc_opt "jobs" fields with
                  | Some (J.Obj jobs) ->
                      Alcotest.(check bool) "exactly one job from two submits" true
                        (List.assoc_opt "done" jobs = Some (J.Int 1))
                  | _ -> Alcotest.fail "stats carries no jobs object")
              | _ -> Alcotest.fail "stats unparsable")
          | Ok (code, _) -> Alcotest.failf "stats returned %d" code
          | Error msg -> Alcotest.failf "stats failed: %s" msg))

let test_server_flight_recorder () =
  (* Forge a submit-only WAL (no done record): boot replay re-enqueues
     and actually executes the job, so its span trace is captured this
     boot — the restart-replay path the flight recorder must cover. *)
  let state_dir = tmp_dir () in
  let params =
    match
      J.parse {|{"kind":"measure","bench":"429.mcf","layouts":4,"quick":true}|}
    with
    | Ok json -> (
        match Jobs.parse json with
        | Ok p -> p
        | Error msg -> Alcotest.failf "params: %s" msg)
    | Error msg -> Alcotest.failf "json: %s" msg
  in
  let ledger, _ = Ledger.open_ ~path:(Filename.concat state_dir "ledger.wal") in
  Ledger.append ledger
    (J.Obj
       [
         ("record", J.String "submit");
         ("key", J.String (Jobs.key params));
         ("client", J.String "anon");
         ("params", Jobs.canonical params);
       ]);
  Ledger.close ledger;
  let id = Jobs.id_of_key (Jobs.key params) in
  let options =
    { (Server.default_options ~state_dir) with Server.scrape_interval = 0.05 }
  in
  let get conn path =
    Http.request ~host:conn.Client.host ~port:conn.Client.port ~meth:"GET" ~path ()
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let server = Server.start options in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = { Client.host = "127.0.0.1"; port = Server.port server } in
      (match Client.wait_ready conn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "daemon not ready: %s" msg);
      (match Client.wait_job ~timeout:120.0 conn ~id with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "replayed job did not run: %s" msg);
      (* The job executed this boot, so its trace is retrievable and is
         valid Chrome trace-event JSON with the expected span skeleton. *)
      (match Client.trace conn ~id with
      | Error msg -> Alcotest.failf "trace fetch failed: %s" msg
      | Ok body ->
          (match J.parse body with
          | Ok (J.Obj fields) -> (
              match List.assoc_opt "traceEvents" fields with
              | Some (J.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "trace has no events")
          | _ -> Alcotest.fail "trace is not a JSON object");
          List.iter
            (fun span ->
              Alcotest.(check bool) (span ^ " span present") true
                (contains body (Printf.sprintf "%S" span)))
            [ "job"; "job.queued"; "job.replay"; "job.fit" ]);
      (* Unknown job ids and present jobs are distinguishable. *)
      (match get conn "/api/jobs/j-000000000000/trace" with
      | Ok (404, body) ->
          Alcotest.(check bool) "unknown id says no job" true (contains body "no job")
      | Ok (code, _) -> Alcotest.failf "unknown trace returned %d" code
      | Error msg -> Alcotest.failf "unknown trace failed: %s" msg);
      (* The background sampler has been scraping all along. *)
      Unix.sleepf 0.15;
      match get conn "/api/timeseries" with
      | Ok (200, body) -> (
          match J.parse body with
          | Ok (J.Obj fields) -> (
              match List.assoc_opt "series" fields with
              | Some (J.List (_ :: _ as series)) ->
                  let has_points =
                    List.exists
                      (function
                        | J.Obj sf -> (
                            match List.assoc_opt "points" sf with
                            | Some (J.List (_ :: _ :: _)) -> true
                            | _ -> false)
                        | _ -> false)
                      series
                  in
                  Alcotest.(check bool) "some series has multiple points" true has_points
              | _ -> Alcotest.fail "timeseries carries no series")
          | _ -> Alcotest.fail "timeseries unparsable")
      | Ok (code, _) -> Alcotest.failf "timeseries returned %d" code
      | Error msg -> Alcotest.failf "timeseries failed: %s" msg);
  (* Restart: replay finds the persisted result, the job is done without
     executing, and the in-memory trace is gone — documented 404. *)
  let server = Server.start options in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = { Client.host = "127.0.0.1"; port = Server.port server } in
      (match Client.wait_ready conn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "restarted daemon not ready: %s" msg);
      (match Client.status conn ~id with
      | Ok (J.Obj fields) ->
          Alcotest.(check bool) "job replayed as done" true
            (List.assoc_opt "status" fields = Some (J.String "done"))
      | Ok _ | Error _ -> Alcotest.fail "status after restart failed");
      match get conn (Printf.sprintf "/api/jobs/%s/trace" id) with
      | Ok (404, body) ->
          Alcotest.(check bool) "404 explains the trace is boot-local" true
            (contains body "not executed this boot")
      | Ok (code, _) -> Alcotest.failf "restart trace returned %d" code
      | Error msg -> Alcotest.failf "restart trace failed: %s" msg)

let suite =
  [
    ( "serve.ledger",
      [
        Alcotest.test_case "append/replay round trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "torn tail is dropped and healed" `Quick
          test_ledger_torn_tail;
        Alcotest.test_case "corruption ends the valid prefix" `Quick
          test_ledger_corrupt_record_ends_prefix;
        Alcotest.test_case "legacy WAL records read and re-append" `Quick
          test_ledger_legacy_format;
      ] );
    ( "serve.queue",
      [
        Alcotest.test_case "capacity, force and close" `Quick
          test_queue_capacity_and_force;
        Alcotest.test_case "round-robin fairness" `Quick test_queue_fairness;
      ] );
    ( "serve.http",
      [
        Alcotest.test_case "parses a framed request" `Quick test_http_parses_request;
        Alcotest.test_case "rejects hostile requests" `Quick test_http_rejects_hostile;
      ] );
    ( "serve.router",
      [ Alcotest.test_case "dispatch, params, 404/405" `Quick test_router_dispatch ] );
    ( "serve.jobs",
      [
        Alcotest.test_case "parse, validate, canonical key" `Quick
          test_jobs_parse_and_key;
        Alcotest.test_case "bundle job verifies a bundle directory" `Quick
          test_jobs_execute_bundle;
        Alcotest.test_case "estimate job converges on its measure twin" `Quick
          test_jobs_execute_estimate;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "submit/wait/result + restart replay" `Quick
          test_server_roundtrip;
        Alcotest.test_case "estimate enqueues a background refinement" `Quick
          test_server_estimate_refinement;
        Alcotest.test_case "duplicate WAL submits collapse onto one job" `Quick
          test_server_replay_dedups_submits;
        Alcotest.test_case "flight recorder: timeseries + trace across restart" `Quick
          test_server_flight_recorder;
      ] );
  ]
