open Sb_crypto

(* Two direct-mapped tables, one per domain (Domain.DLS, like the
   Lagrange coefficient cache): no locking, and no table is ever seen
   by two domains. A slot holds one key and its result; a lookup is a
   hit only if the stored key equals the query in every field, so a
   slot collision or an eviction costs a recomputation, never a wrong
   answer. *)

let[@inline] mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

(* --- Pedersen share checks --------------------------------------------- *)

let verify_slots = 2048

(* Keys sit flat in one int array, [stride] cells per slot:
   [len + 1; index; value; blind; c_0; ...; c_(len-1)], where len is the
   commitment length and a first cell of 0 marks an empty slot. A warm
   table allocates nothing. Commitments longer than [max_elts]
   (threshold t > 7) are checked by the kernel directly. *)
let max_elts = 8
let stride = max_elts + 4

type verify_table = { keys : int array; oks : Bytes.t }

let verify_key =
  Domain.DLS.new_key (fun () ->
      { keys = Array.make (verify_slots * stride) 0; oks = Bytes.make verify_slots '\000' })

let verify_slot (c : Pedersen.commitment) (s : Pedersen.share) =
  let h =
    ref
      (mix
         (mix (mix (Array.length c) s.Pedersen.index) (s.Pedersen.value :> int))
         (s.Pedersen.blind :> int))
  in
  for j = 0 to Array.length c - 1 do
    h := mix !h (c.(j) :> int)
  done;
  !h land (verify_slots - 1)

let rec same_elts k base (c : Pedersen.commitment) j =
  j >= Array.length c || (k.(base + 4 + j) = (c.(j) :> int) && same_elts k base c (j + 1))

let matches k base (c : Pedersen.commitment) (s : Pedersen.share) =
  k.(base) = Array.length c + 1
  && k.(base + 1) = s.Pedersen.index
  && k.(base + 2) = (s.Pedersen.value :> int)
  && k.(base + 3) = (s.Pedersen.blind :> int)
  && same_elts k base c 0

let store k base (c : Pedersen.commitment) (s : Pedersen.share) =
  k.(base) <- Array.length c + 1;
  k.(base + 1) <- s.Pedersen.index;
  k.(base + 2) <- (s.Pedersen.value :> int);
  k.(base + 3) <- (s.Pedersen.blind :> int);
  for j = 0 to Array.length c - 1 do
    k.(base + 4 + j) <- (c.(j) :> int)
  done

let verify_share c s =
  if Array.length c > max_elts then Pedersen.verify_share c s
  else begin
    let t = Domain.DLS.get verify_key in
    let slot = verify_slot c s in
    let base = slot * stride in
    if matches t.keys base c s then Bytes.get t.oks slot = '\001'
    else begin
      let ok = Pedersen.verify_share c s in
      store t.keys base c s;
      Bytes.set t.oks slot (if ok then '\001' else '\000');
      ok
    end
  end

(* --- SHA-256 digests --------------------------------------------------- *)

let digest_slots = 256

(* Strings are immutable, so a slot keeps the query string itself. An
   empty slot holds the true entry for "". *)
type digest_table = { inputs : string array; outputs : string array }

let digest_key =
  Domain.DLS.new_key (fun () ->
      { inputs = Array.make digest_slots ""; outputs = Array.make digest_slots (Sha256.digest "") })

let digest_slot s = Hashtbl.hash s land (digest_slots - 1)

let digest s =
  let t = Domain.DLS.get digest_key in
  let slot = digest_slot s in
  if String.equal t.inputs.(slot) s then t.outputs.(slot)
  else begin
    let d = Sha256.digest s in
    t.inputs.(slot) <- s;
    t.outputs.(slot) <- d;
    d
  end
