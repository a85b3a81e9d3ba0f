(* Clock, allocation and memory readings shared by every workload. *)

(* Nanoseconds on CLOCK_MONOTONIC. The clock is system-wide, so a
   reading taken here compares with one taken by the launching
   process (run.py passes its own reading as --t0-ns). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Exact at one domain: every benchmark run is single-domain. *)
let minor_words () = Gc.minor_words ()

type gc_mark = { minor : float; promoted : float; minor_gcs : int; major_gcs : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    promoted = s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* Percentile of an unsorted sample, [p] in [0, 1], interpolating
   linearly between the two nearest ranks (so the median of an even
   count is the mean of the middle two). *)
let percentile p values =
  let a = Array.copy values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    let frac = x -. float_of_int i in
    if i >= n - 1 then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

(* A growable float buffer for per-session latencies. *)
module Floats = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0.0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.a 0 t.len
end

(* Seeds for the passes and cells of a run: a pure function of the
   benchmark seed, so the same seed always gives the same inputs. *)
let derive seed parts =
  List.fold_left (fun acc p -> Hashtbl.hash (acc, p) land 0x3FFF_FFFF) seed parts
