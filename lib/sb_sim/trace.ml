type round_record = {
  round : int;
  honest_sent : Envelope.t list;
  adv_sent : Envelope.t list;
  func_sent : Envelope.t list;
}

type t = round_record list

type tally = {
  sizing : bool;
  mutable broadcasts : int;
  mutable p2p : int;
  mutable broadcast_bytes : int;
  mutable p2p_bytes : int;
  mutable last_body : Msg.t;
  mutable last_size : int;
}

let tally ~bytes =
  { sizing = bytes; broadcasts = 0; p2p = 0; broadcast_bytes = 0; p2p_bytes = 0;
    last_body = Msg.Unit; last_size = Msg.size_bytes Msg.Unit }

(* A send-all fan-out shares one body across n envelopes, so a
   one-slot physical-equality cache walks each distinct body once. *)
let body_size t body =
  if body != t.last_body then begin
    t.last_body <- body;
    t.last_size <- Msg.size_bytes body
  end;
  t.last_size

let rec add_from t len = function
  | [] -> len
  | (e : Envelope.t) :: rest ->
      if not (Envelope.is_func_bound e) then begin
        let bcast = Envelope.is_broadcast e in
        if bcast then t.broadcasts <- t.broadcasts + 1 else t.p2p <- t.p2p + 1;
        if t.sizing then begin
          let w =
            Envelope.endpoint_size e.Envelope.src + Envelope.endpoint_size e.Envelope.dst
            + body_size t e.Envelope.body
          in
          if bcast then t.broadcast_bytes <- t.broadcast_bytes + w
          else t.p2p_bytes <- t.p2p_bytes + w
        end
      end;
      add_from t (len + 1) rest

let add t envs = add_from t 0 envs

let count ~bytes trace =
  let t = tally ~bytes in
  List.iter (fun r -> ignore (add t r.honest_sent + add t r.adv_sent)) trace;
  t

let p2p_message_count trace = (count ~bytes:false trace).p2p
let broadcast_count trace = (count ~bytes:false trace).broadcasts

let wire_bytes trace =
  let t = count ~bytes:true trace in
  (t.broadcast_bytes, t.p2p_bytes)

let messages_from trace src =
  let count_from =
    List.fold_left (fun acc e -> if Envelope.src_party e = Some src then acc + 1 else acc)
  in
  List.fold_left (fun acc r -> count_from (count_from acc r.honest_sent) r.adv_sent) 0 trace

let per_round_counts trace =
  List.map
    (fun r -> (List.length r.honest_sent, List.length r.adv_sent, List.length r.func_sent))
    trace

let pp fmt trace =
  List.iter
    (fun r ->
      Format.fprintf fmt "round %d:@." r.round;
      let each e = Format.fprintf fmt "  %a@." Envelope.pp e in
      List.iter each r.honest_sent;
      List.iter each r.adv_sent;
      List.iter each r.func_sent)
    trace
