(* The calibration kernel: a fixed piece of OCaml-stdlib work that no
   change to the libraries can speed up or slow down. It allocates
   short-lived lists (minor GC), hashes and digests strings, and chases
   indices through a 64 MB table (cache misses) — the kinds of work the
   simulator does. Its wall tracks how fast the shared host runs the
   simulator at the moment: a table that fits the last-level cache
   (8 MB) tracked the large-n sessions' walls about half as well. *)

let table_bits = 23
let mask = (1 lsl table_bits) - 1
(* Outside the OCaml heap, so the table does not change how the GC
   paces the workload around it. *)
let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl table_bits) in
     for i = 0 to (1 lsl table_bits) - 1 do
       t.{i} <- (i * 40503) land mask
     done;
     t)
let table_mb = float_of_int ((1 lsl table_bits) * (Sys.word_size / 8)) /. 1048576.0

let work () =
  let table = Lazy.force table in
  let acc = ref 0 and j = ref 0 in
  for i = 1 to 6_000 do
    let l = List.init 24 (fun k -> (k lxor i, k + i)) in
    acc := !acc + List.fold_left (fun a (x, y) -> a + x + y) 0 l;
    let key = string_of_int i in
    acc := !acc + Hashtbl.hash key + Char.code (Digest.string key).[0];
    for _ = 1 to 8 do
      j := table.{(!j + i) land mask}
    done
  done;
  Sys.opaque_identity (!acc + !j)

(* Wall of one chunk on the reference host (2-vCPU VM, quiet). *)
let reference_s = 0.012

