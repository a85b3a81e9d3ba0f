(* The four xoshiro256** state words live in one 32-byte buffer (s0 at
   offset 0, s1 at 8, s2 at 16, s3 at 24), read and written with the
   unboxed 64-bit bytes primitives. Without flambda a record of mutable
   [int64] fields boxes every store, so each draw used to allocate;
   here the whole update runs in registers and only the buffer is
   written back. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64, used only to expand seeds into full xoshiro states: its
   k-th output from [seed] is [mix (seed + k * gamma)]. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let open Int64 in
  let s0 = mix (add seed gamma) in
  let s1 = mix (add seed (mul 2L gamma)) in
  let s2 = mix (add seed (mul 3L gamma)) in
  let s3 = mix (add seed (mul 4L gamma)) in
  let t = Bytes.create 32 in
  (* xoshiro must not start from the all-zero state. *)
  if logor (logor s0 s1) (logor s2 s3) = 0L then begin
    set64 t 0 1L;
    set64 t 8 2L;
    set64 t 16 3L;
    set64 t 24 4L
  end
  else begin
    set64 t 0 s0;
    set64 t 8 s1;
    set64 t 16 s2;
    set64 t 24 s3
  end;
  t

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let int64 t = next t
let split t = of_seed64 (next t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n";
  Array.init n (fun _ -> split t)

let copy = Bytes.copy

let bits t w =
  assert (w >= 0 && w <= 62);
  if w = 0 then 0 else Int64.to_int (Int64.shift_right_logical (next t) (64 - w))

let int t bound =
  assert (bound > 0);
  if bound = 1 then 0
  else begin
    (* Smallest power-of-two mask covering [bound], then reject. *)
    let rec width w = if 1 lsl w >= bound then w else width (w + 1) in
    let w = width 1 in
    let rec draw () =
      let v = bits t w in
      if v < bound then v else draw ()
    in
    draw ()
  end

let bool t = bits t 1 = 1
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53
let bernoulli t p = float t < p

let bytes t len =
  String.init len (fun _ -> Char.chr (bits t 8))

let perm t n =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
