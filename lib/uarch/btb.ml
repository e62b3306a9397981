type t = {
  sets : int;
  ways : int;
  tags : int array;  (** [set * ways + way]; -1 = invalid; LRU order, way 0 = MRU *)
  targets : int array;
}

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then invalid_arg "Btb.create: sets not a power of two";
  if ways < 1 then invalid_arg "Btb.create: ways < 1";
  { sets; ways; tags = Array.make (sets * ways) (-1); targets = Array.make (sets * ways) 0 }

let lookup_update t ~pc ~target =
  let hashed = Predictor.hash_pc pc in
  let set = hashed land (t.sets - 1) in
  let tag = hashed lsr 1 in
  let base = set * t.ways in
  let found = ref (-1) in
  for way = 0 to t.ways - 1 do
    if !found = -1 && t.tags.(base + way) = tag then found := way
  done;
  let correct = !found >= 0 && t.targets.(base + !found) = target in
  (* Move to MRU position (allocating in the LRU way on miss). *)
  let way = if !found >= 0 then !found else t.ways - 1 in
  for w = base + way downto base + 1 do
    t.tags.(w) <- t.tags.(w - 1);
    t.targets.(w) <- t.targets.(w - 1)
  done;
  t.tags.(base) <- tag;
  t.targets.(base) <- target;
  correct

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.targets 0 (Array.length t.targets) 0

let storage_bits t = t.sets * t.ways * (32 + 32)
