(* Causal tracing engine: a span-tree context with one tree per
   protocol session (session -> round -> party -> phase), causal flow
   edges between spans, and named attribution buckets for leaf-level
   hot-path work that is too fine-grained for a span of its own (one
   fixed-base exponentiation, one Lagrange reconstruction).

   Concurrency model: the *open*-span stack is domain-local
   (Domain.DLS) because a protocol session executes wholly on one
   domain — Monte-Carlo samplers run whole Network.runs inside worker
   domains. Completed spans and flow edges are appended to process-wide
   lists under a mutex. Nothing here draws randomness or mutates caller
   state, so enabling tracing cannot perturb seeded protocol outputs.

   Overhead contract (same as Metrics): with tracing disabled every
   entry point is a single boolean load; no closure, no DLS access, no
   clock read. *)

type span = {
  id : int;
  parent : int;  (* span id, or -1 for a session root *)
  name : string;
  agg : string;
  cat : string;
  track : int;
  args : (string * string) list;
  start_us : float;
  mutable end_us : float;
  mutable minor0 : float;
  mutable major0 : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable buckets : (string * int * float) list;
}

type h = span option

let none : h = None

let on_flag = ref false
let enabled () = !on_flag

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let completed : span list ref = ref []
let flow_edges : (int * int) list ref = ref []
let next_id = Atomic.make 0
let session_count = Atomic.make 0
let default_max_sessions = 64
let max_sessions = ref default_max_sessions
let set_max_sessions k = max_sessions := max 1 k

(* Innermost-first stack of open spans, one per domain. *)
let stack_key : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let set_enabled b = on_flag := b

let reset () =
  locked (fun () ->
      completed := [];
      flow_edges := []);
  Atomic.set next_id 0;
  Atomic.set session_count 0;
  Domain.DLS.get stack_key := []

let now_us () = Metrics.now_s () *. 1e6

let fresh_span ~parent ~track ~agg ~cat ~args name =
  let min0 = Gc.minor_words () and _, _, maj0 = Gc.counters () in
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    parent;
    name;
    agg;
    cat;
    track;
    args;
    start_us = now_us ();
    end_us = Float.nan;
    minor0 = min0;
    major0 = maj0;
    minor_words = 0.0;
    major_words = 0.0;
    buckets = [];
  }

let begin_session ?(args = []) name =
  if not !on_flag then None
  else
    let k = Atomic.fetch_and_add session_count 1 in
    if k >= !max_sessions then None
    else begin
      let sp = fresh_span ~parent:(-1) ~track:(k + 1) ~agg:name ~cat:"session" ~args name in
      (* Defensive: a session that died mid-run (exception past its
         end_span calls) may have left open spans on this domain's
         stack; a new session always starts from a clean tree. *)
      Domain.DLS.get stack_key := [ sp ];
      Some sp
    end

let begin_span ?agg ?(args = []) ~cat name =
  if not !on_flag then None
  else
    let stack = Domain.DLS.get stack_key in
    match !stack with
    | [] -> None (* no ambient session on this domain (or session cap hit) *)
    | parent :: _ ->
        let agg = match agg with Some a -> a | None -> name in
        let sp = fresh_span ~parent:parent.id ~track:parent.track ~agg ~cat ~args name in
        stack := sp :: !stack;
        Some sp

let end_span (h : h) =
  match h with
  | None -> ()
  | Some sp ->
      sp.end_us <- now_us ();
      let min1 = Gc.minor_words () and _, _, maj1 = Gc.counters () in
      sp.minor_words <- min1 -. sp.minor0;
      sp.major_words <- maj1 -. sp.major0;
      let stack = Domain.DLS.get stack_key in
      (match !stack with
      | top :: rest when top == sp -> stack := rest
      | other ->
          (* Unbalanced close (an exception skipped inner end_span
             calls): drop everything above this span. *)
          let rec drop = function
            | top :: rest when top == sp -> rest
            | _ :: rest -> drop rest
            | [] -> other
          in
          stack := drop other);
      locked (fun () -> completed := sp :: !completed)

let flow ~src ~dst =
  match (src, dst) with
  | Some (s : span), Some (d : span) -> locked (fun () -> flow_edges := (s.id, d.id) :: !flow_edges)
  | _ -> ()

let bucket_add name dt_us =
  if !on_flag then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | sp :: _ ->
        let rec upd = function
          | [] -> [ (name, 1, dt_us) ]
          | (n, c, t) :: rest when String.equal n name -> (n, c + 1, t +. dt_us) :: rest
          | kv :: rest -> kv :: upd rest
        in
        sp.buckets <- upd sp.buckets

let spans () =
  locked (fun () -> !completed)
  |> List.sort (fun a b ->
         match Int.compare a.track b.track with
         | 0 -> (
             match Float.compare a.start_us b.start_us with
             | 0 -> Int.compare a.id b.id
             | c -> c)
         | c -> c)

let flows () = locked (fun () -> List.rev !flow_edges)
let session_total () = Atomic.get session_count
let sessions_traced () = min (Atomic.get session_count) !max_sessions
