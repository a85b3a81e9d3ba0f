type scheme = { keys : string array }
type signature = string

let create rng ~n = { keys = Array.init n (fun _ -> Sb_util.Rng.bytes rng 32) }

let sign s ~signer msg =
  assert (signer >= 0 && signer < Array.length s.keys);
  (* SHA-256("simbcast.sig.v1:" ^ key ^ "\x00" ^ msg), streamed so the
     message is not copied into a concatenation first. *)
  let ctx = Sha256.init () in
  Sha256.feed ctx "simbcast.sig.v1:";
  Sha256.feed ctx s.keys.(signer);
  Sha256.feed ctx "\x00";
  Sha256.feed ctx msg;
  Sha256.finalize ctx

let verify s ~signer msg signature =
  signer >= 0
  && signer < Array.length s.keys
  && String.equal signature (sign s ~signer msg)

let n s = Array.length s.keys
