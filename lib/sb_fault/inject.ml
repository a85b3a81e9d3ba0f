open Sb_sim

let m_crashes = Sb_obs.Metrics.counter "fault.crashes"
let m_drops = Sb_obs.Metrics.counter "fault.drops"
let m_delayed = Sb_obs.Metrics.counter "fault.delayed"

(* Group index of [i] under a partition: listed groups get their list
   position, everyone unlisted shares the implicit group -1. *)
let group_of groups i =
  let rec go k = function
    | [] -> -1
    | g :: rest -> if List.mem i g then k else go (k + 1) rest
  in
  go 0 groups

let compile ~n (plan : Plan.t) =
  (match Plan.validate ~n plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Sb_fault.Inject.compile: " ^ e));
  let crash_round = Array.make n max_int in
  List.iter
    (function
      | Plan.Crash { party; round } ->
          crash_round.(party) <- min crash_round.(party) round
      | _ -> ())
    plan;
  let partitions =
    List.filter_map
      (function Plan.Partition { groups; first; last } -> Some (groups, first, last) | _ -> None)
      plan
  in
  (* Drop/delay rules keep their relative plan order. *)
  let rules =
    List.filter_map
      (function
        | Plan.Drop { link; p; at } -> Some (`Drop (link, p, at))
        | Plan.Delay { link; by; at } -> Some (`Delay (link, by, at))
        | Plan.Crash _ | Plan.Partition _ -> None)
      plan
  in
  fun ~rng ->
    (* Per-run state: which crashes have been tallied, and envelopes in
       flight, keyed by the round they should re-enter the queue as if
       sent in (appended in arrival order, released in that order). *)
    let crash_counted = Array.make n false in
    let held : (int, Envelope.t list ref) Hashtbl.t = Hashtbl.create 8 in
    let hold ~due e =
      match Hashtbl.find_opt held due with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add held due (ref [ e ])
    in
    let partitioned ~round ~src ~dst =
      List.exists
        (fun (groups, first, last) ->
          round >= first && round <= last && group_of groups src <> group_of groups dst)
        partitions
    in
    fun ~round envs ->
      Array.iteri
        (fun i r ->
          if round >= r && not crash_counted.(i) then begin
            crash_counted.(i) <- true;
            Sb_obs.Metrics.incr m_crashes
          end)
        crash_round;
      let released =
        match Hashtbl.find_opt held round with
        | Some l ->
            Hashtbl.remove held round;
            List.rev !l
        | None -> []
      in
      let keep =
        List.filter
          (fun (e : Envelope.t) ->
            match (Envelope.src_party e, Envelope.dst_party e) with
            | Some i, _ when round >= crash_round.(i) -> false
            | Some s, Some d when Envelope.is_link e ->
                (* A real point-to-point link: fault rules apply. *)
                if partitioned ~round ~src:s ~dst:d then begin
                  Sb_obs.Metrics.incr m_drops;
                  false
                end
                else
                  (* A rule with a round scope is inert outside its
                     sending round; the Bernoulli coin is drawn only
                     for rules that actually match, so scoped rules
                     never perturb the fault stream elsewhere. *)
                  let in_scope = function None -> true | Some r -> r = round in
                  let rec apply = function
                    | [] -> true
                    | `Drop (l, p, at) :: rest ->
                        if in_scope at && Plan.link_matches l ~src:s ~dst:d then
                          if Sb_util.Rng.bernoulli rng p then begin
                            Sb_obs.Metrics.incr m_drops;
                            false
                          end
                          else apply rest
                        else apply rest
                    | `Delay (l, by, at) :: rest ->
                        if in_scope at && Plan.link_matches l ~src:s ~dst:d then begin
                          Sb_obs.Metrics.incr m_delayed;
                          hold ~due:(round + by) e;
                          false
                        end
                        else apply rest
                  in
                  apply rules
            | _ ->
                (* Self-delivery, the broadcast channel, and both
                   directions of the ideal functionality channel are
                   reliable; only crash-stop touches them. *)
                true)
          envs
      in
      released @ keep
