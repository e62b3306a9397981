let parse_int ~name ~min ~default raw =
  match raw with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= min -> Ok n
      | Some n -> Error (Printf.sprintf "%s=%d is below its minimum %d" name n min)
      | None -> Error (Printf.sprintf "%s=%S is not an integer" name v))

let env_int ?(min = 1) name default =
  match parse_int ~name ~min ~default (Sys.getenv_opt name) with
  | Ok n -> n
  | Error msg ->
      prerr_endline msg;
      exit 2

let describe knobs =
  knobs
  |> List.map (fun (name, value) -> Printf.sprintf "%s=%d" name value)
  |> String.concat " "
