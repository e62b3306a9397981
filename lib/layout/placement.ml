type t = { seed : int; code : Code_layout.t; data : Data_layout.t }

let code_layout program ~seed =
  if seed = 0 then Code_layout.natural program else Code_layout.randomized program ~seed

let shared_data ?(heap_random = false) ?(aslr = false) program =
  if heap_random || aslr then None else Some (Data_layout.bump program)

let with_data (data : Data_layout.t) ~seed =
  { seed; code = code_layout data.Data_layout.program ~seed; data }

let make ?(heap_random = false) ?(aslr = false) program ~seed =
  let aslr_seed = if aslr then Some (seed * 31 + 17) else None in
  let data =
    if heap_random then Data_layout.randomized ?aslr_seed program ~seed
    else Data_layout.bump ?aslr_seed program
  in
  { seed; code = code_layout program ~seed; data }

let natural program = make program ~seed:0

let batch ?heap_random ?aslr program ~seeds =
  Array.to_list (Array.map (fun seed -> make ?heap_random ?aslr program ~seed) seeds)
