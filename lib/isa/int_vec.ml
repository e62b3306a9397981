type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Int_vec.create: capacity < 1";
  { data = Array.make capacity 0; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get: out of bounds";
  t.data.(i)

let truncate t len =
  if len < 0 || len > t.len then invalid_arg "Int_vec.truncate: length out of bounds";
  t.len <- len

let to_array t = Array.sub t.data 0 t.len
