type geometry = { size_bytes : int; assoc : int; line_bytes : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let geometry_sets g =
  if g.size_bytes <= 0 || g.assoc <= 0 || g.line_bytes <= 0 then
    invalid_arg "Cache.geometry_sets: nonpositive geometry";
  if not (is_pow2 g.line_bytes) then invalid_arg "Cache.geometry_sets: line size not a power of two";
  let sets = g.size_bytes / (g.assoc * g.line_bytes) in
  if sets * g.assoc * g.line_bytes <> g.size_bytes then
    invalid_arg "Cache.geometry_sets: size not divisible by assoc * line";
  if not (is_pow2 sets) then invalid_arg "Cache.geometry_sets: set count not a power of two";
  sets

type t = {
  geometry : geometry;
  sets : int;
  line_shift : int;
  tags : int array;  (** [set * assoc + way], LRU order per set; -1 invalid *)
  mutable accesses : int;
  mutable misses : int;
}

let log2_exact n =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let create g =
  let sets = geometry_sets g in
  {
    geometry = g;
    sets;
    line_shift = log2_exact g.line_bytes;
    tags = Array.make (sets * g.assoc) (-1);
    accesses = 0;
    misses = 0;
  }

let geometry t = t.geometry

(* [find_way]/[promote] are the innermost operations of every simulated
   cache reference; they run once or twice per dynamic block. Indices stay
   in bounds by construction ([base = set * assoc] with [set < sets], and
   [way < assoc]), so the bound is hoisted and the scans use unsafe reads
   instead of a bounds check per way. *)
let find_way t base tag =
  let tags = t.tags in
  let limit = base + t.geometry.assoc in
  let i = ref base in
  while !i < limit && Array.unsafe_get tags !i <> tag do incr i done;
  if !i < limit then !i - base else -1

let promote t base way tag =
  (* Shift ways [0, way) down one and install [tag] as MRU. *)
  let tags = t.tags in
  for w = base + way downto base + 1 do
    Array.unsafe_set tags w (Array.unsafe_get tags (w - 1))
  done;
  Array.unsafe_set tags base tag

let access t addr =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.geometry.assoc in
  let way = find_way t base line in
  if way >= 0 then begin
    promote t base way line;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    promote t base (t.geometry.assoc - 1) line;
    false
  end

let probe t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.geometry.assoc in
  find_way t base line >= 0

let touch t addr = ignore (access t addr)

let fill t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.geometry.assoc in
  let way = find_way t base line in
  promote t base (if way >= 0 then way else t.geometry.assoc - 1) line

let access_range t ~addr ~bytes =
  if bytes <= 0 then 0
  else begin
    let first = addr lsr t.line_shift in
    let last = (addr + bytes - 1) lsr t.line_shift in
    let misses = ref 0 in
    for line = first to last do
      if not (access t (line lsl t.line_shift)) then incr misses
    done;
    !misses
  end

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.accesses <- 0;
  t.misses <- 0

let accesses t = t.accesses
let misses t = t.misses
