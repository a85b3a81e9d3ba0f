(* What one timed run of a workload observed, and the end-to-end
   metrics made from it.

   A workload is cut into cases (a tester cell, an application, a
   substrate at one n, a checker cell). Each case records the work its
   library call did and the walls it took: an inner wall covering the
   protocol executions alone and an outer wall covering the whole
   call. Rates of executions and deliveries use the inner wall; rates
   of sessions and states use the outer wall. Every pass of a run
   repeats the same inputs, so a case that runs in several passes
   counts once, with its median walls.

   The host these runs share is noisy: the same work takes tens of
   percent longer in one run than in the next. A fixed calibration
   kernel (Calib) runs before and after every case, and every wall is
   divided by the kernel's slowdown around it against its reference
   wall. *)

(* One execution of a case: its counts and walls. *)
type case = {
  executions : int;
  inner_s : float;
  sessions : int;
  outer_s : float;
  deliveries : int;
  deliveries_s : float;
  states : int;
  walls : float array;  (** per-session walls, seconds *)
}

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable ops : int;  (** denominator of alloc_words_per_op *)
  mutable cases : (string * int * int * case) list;
      (** newest first: key, calibration points before its start and
          before its end, raw walls *)
  mutable points : float list;  (** chunk wall at each calibration point, newest first *)
  mutable calib_words : float;  (** allocated by the kernel, left out of alloc_words_per_op *)
  mutable exact : (string * int) list;
      (** counts that repeat exactly at one seed, for the determinism check *)
}

let create () = { attempted = 0; failed = 0; ops = 0; cases = []; points = []; calib_words = 0.0; exact = [] }

(* Calibration points so far; a case that calibrates inside itself
   passes the count at its start to [add] as [from]. *)
let points t = List.length t.points

(* Whether long cases also calibrate inside themselves (untraced
   timed runs only: the points would land inside traced spans). *)
let within = ref false

(* Adds one execution of case [key]: its counts, its walls and the
   walls of its sessions. Deliveries are timed on the inner wall unless
   [deliveries_s] says otherwise. *)
let add t key ?from ~executions ~inner_s ~sessions ~outer_s ~deliveries ?deliveries_s ~states
    ?(walls = [||]) () =
  let deliveries_s = Option.value ~default:inner_s deliveries_s in
  let point = points t in
  t.cases <-
    ( key,
      Option.value ~default:point from,
      point,
      { executions; inner_s; sessions; outer_s; deliveries; deliveries_s; states; walls } )
    :: t.cases

(* A calibration point: [chunks] chunks of the kernel (two by
   default). Workloads call this before their first case and after
   every case, and long cases every so often inside themselves (one
   chunk), leaving the returned wall out of their own walls. *)
let calibrate ?(chunks = 2) t =
  ignore (Lazy.force Calib.table);
  let w0 = Meas.minor_words () and t0 = Meas.now_ns () in
  for _ = 1 to chunks do
    ignore (Calib.work ())
  done;
  let wall = Meas.secs_since t0 in
  t.points <- (wall /. float_of_int chunks) :: t.points;
  t.calib_words <- t.calib_words +. (Meas.minor_words () -. w0);
  wall

(* The walls between consecutive start stamps (ns), in seconds. *)
let gaps stamps = Array.init (max 0 (Array.length stamps - 1)) (fun i -> (stamps.(i + 1) -. stamps.(i)) /. 1e9)

let add_exact t name v =
  let prev = try List.assoc name t.exact with Not_found -> 0 in
  t.exact <- (name, prev + v) :: List.remove_assoc name t.exact

let fail t n reason =
  if n > 0 then begin
    t.failed <- t.failed + n;
    prerr_endline ("perfbench: check failed: " ^ reason)
  end

(* The run's mean slowdown against the reference host. *)
let slowdown t =
  match t.points with
  | [] -> 1.0
  | ps -> List.fold_left ( +. ) 0.0 ps /. float_of_int (List.length ps) /. Calib.reference_s

(* The slowdown a case's walls are divided by: the mean chunk wall of
   the calibration points inside the case and the one on either side,
   over the reference wall. *)
let factor t from point =
  let pts = Array.of_list (List.rev t.points) in
  let n = Array.length pts in
  if n = 0 then 1.0
  else begin
    let lo = max 0 (min (n - 1) (from - 1)) and hi = min (n - 1) point in
    let sum = ref 0.0 in
    for i = lo to hi do
      sum := !sum +. pts.(i)
    done;
    !sum /. float_of_int (hi - lo + 1) /. Calib.reference_s
  end

(* A case that ran in several passes counts once, with the median of
   each calibrated wall over its executions; its counts are equal in
   every pass. Likewise each of its sessions has the median of its
   walls. *)
let metrics t =
  let median f l = Meas.percentile 0.5 (Array.of_list (List.map f l)) in
  let by_key = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (key, from, point, c) ->
      let f = factor t from point in
      let c =
        {
          c with
          inner_s = c.inner_s /. f;
          outer_s = c.outer_s /. f;
          deliveries_s = c.deliveries_s /. f;
          walls = Array.map (fun w -> w /. f) c.walls;
        }
      in
      match Hashtbl.find_opt by_key key with
      | Some l -> Hashtbl.replace by_key key (c :: l)
      | None ->
          Hashtbl.add by_key key [ c ];
          order := key :: !order)
    (List.rev t.cases);
  let cases = List.rev_map (Hashtbl.find by_key) !order in
  let sum f = List.fold_left (fun acc l -> acc +. f l) 0.0 cases in
  let count f = sum (fun l -> float_of_int (f (List.hd l))) in
  let rate n wall = if wall > 0.0 then n /. wall else 0.0 in
  let inner = sum (median (fun c -> c.inner_s)) and outer = sum (median (fun c -> c.outer_s)) in
  (* Each session's median wall over the passes, pooled over cases. *)
  let lat =
    Array.concat
      (List.map
         (fun l ->
           let n = Array.length (List.hd l).walls in
           if List.exists (fun c -> Array.length c.walls <> n) l then Array.concat (List.map (fun c -> c.walls) l)
           else Array.init n (fun i -> median (fun c -> c.walls.(i)) l))
         cases)
  in
  [
    ("samples_per_s", rate (count (fun c -> c.executions)) inner);
    ("sessions_per_s", rate (count (fun c -> c.sessions)) outer);
    ("session_p50_ms", Meas.percentile 0.5 lat *. 1e3);
    ("session_p99_ms", Meas.percentile 0.99 lat *. 1e3);
    ("deliveries_per_s", rate (count (fun c -> c.deliveries)) (sum (median (fun c -> c.deliveries_s))));
    ("states_per_s", rate (count (fun c -> c.states)) outer);
  ]
