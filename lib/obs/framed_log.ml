let digest_len = 32 (* md5 hex *)

let digest_hex payload = Digest.to_hex (Digest.string payload)

let frame payload = digest_hex payload ^ " " ^ payload ^ "\n"

let unframe line =
  let n = String.length line in
  if n < digest_len + 2 || line.[digest_len] <> ' ' then None
  else
    let payload = String.sub line (digest_len + 1) (n - digest_len - 1) in
    if String.equal (String.sub line 0 digest_len) (digest_hex payload) then Some payload
    else None

let append fd bytes =
  Fs.write_all fd bytes;
  Unix.fsync fd
