(* The benchmark's span recorder, used only by traced runs.

   A span has a kind (the layer it times), a start, an end, a parent
   span and the id of the session it belongs to. Self time is the
   span's duration minus the durations of its direct children; it is
   accumulated per kind as each span closes, over every span of the
   run, so the per-layer totals cover all sessions. The spans of every
   [keep_every]-th session are also kept in memory, up to [keep_cap]
   of them, and written out by [write] when the run ends. *)

type kind = {
  name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
}

let kinds : kind list ref = ref []

let kind name =
  let k = { name; count = 0; total_ns = 0; self_ns = 0 } in
  kinds := k :: !kinds;
  k

(* The open spans, as a stack of parallel arrays: opening and closing
   a span allocates nothing. *)
let max_depth = 1024
let st_kind = Array.make max_depth { name = ""; count = 0; total_ns = 0; self_ns = 0 }
let st_id = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0

let enabled = ref false
let next_id = ref 0
let session = ref 0
let sessions = ref 0
let root_ns = ref 0
let keep_every = 64
let keep_cap = 20_000

type kept = { k_name : string; k_id : int; k_parent : int; k_session : int; k_start : int; k_end : int }

let kept : kept list ref = ref []
let kept_n = ref 0

(* Starts a new session: spans closed from now on carry its id. *)
let new_session () =
  incr sessions;
  session := !sessions

let close d stop =
  let dur = stop - st_start.(d) in
  let k = st_kind.(d) in
  k.count <- k.count + 1;
  k.total_ns <- k.total_ns + dur;
  k.self_ns <- k.self_ns + (dur - st_child.(d));
  depth := d;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur else root_ns := !root_ns + dur;
  if (!session - 1) mod keep_every = 0 && !kept_n < keep_cap then begin
    incr kept_n;
    kept :=
      {
        k_name = k.name;
        k_id = st_id.(d);
        k_parent = (if d > 0 then st_id.(d - 1) else -1);
        k_session = !session;
        k_start = st_start.(d);
        k_end = stop;
      }
      :: !kept
  end

let span k f =
  if not !enabled then f ()
  else begin
    let d = !depth in
    incr next_id;
    st_kind.(d) <- k;
    st_id.(d) <- !next_id;
    st_child.(d) <- 0;
    depth := d + 1;
    st_start.(d) <- Meas.now_ns ();
    match f () with
    | v ->
        close d (Meas.now_ns ());
        v
    | exception e ->
        close d (Meas.now_ns ());
        raise e
  end

let reset () =
  List.iter
    (fun k ->
      k.count <- 0;
      k.total_ns <- 0;
      k.self_ns <- 0)
    !kinds;
  depth := 0;
  next_id := 0;
  session := 0;
  sessions := 0;
  root_ns := 0;
  kept := [];
  kept_n := 0

let count k = k.count
let self_s k = float_of_int k.self_ns /. 1e9
let total_s k = float_of_int k.total_ns /. 1e9

(* Sum of every span's self time minus the summed wall of the root
   spans, in ns. Zero whenever every span closed inside its parent. *)
let self_sum_error_ns () =
  List.fold_left (fun acc k -> acc + k.self_ns) 0 !kinds - !root_ns

let spans () = !next_id

(* One JSON object per line: the per-kind totals, then the kept spans
   in start order. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun k ->
          if k.count > 0 then
            Printf.fprintf oc
              "{\"kind\":%S,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}\n" k.name k.count
              k.total_ns k.self_ns)
        (List.rev !kinds);
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"span\":%S,\"id\":%d,\"parent\":%d,\"session\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.k_name s.k_id s.k_parent s.k_session s.k_start s.k_end)
        (List.sort (fun a b -> compare a.k_start b.k_start) !kept))
