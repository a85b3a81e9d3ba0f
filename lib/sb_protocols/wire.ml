open Sb_sim

let tagged ~tag inbox =
  List.filter_map
    (fun (e : Envelope.t) ->
      match e.Envelope.body with
      | Msg.Tag (t, m) when String.equal t tag -> Some (e.Envelope.src, m)
      | _ -> None)
    inbox

let tagged_from_parties ~tag inbox =
  List.filter_map
    (fun (e : Envelope.t) ->
      match (Envelope.src_party e, e.Envelope.body) with
      | Some src, Msg.Tag (t, m) when String.equal t tag -> Some (src, m)
      | _ -> None)
    inbox

let first_from ~tag ~src inbox =
  List.find_map
    (fun (e : Envelope.t) ->
      match (e.Envelope.src, e.Envelope.body) with
      | Envelope.Party s, Msg.Tag (t, m) when s = src && String.equal t tag -> Some m
      | _ -> None)
    inbox

let bit_of_field f = Sb_crypto.Field.equal f Sb_crypto.Field.one
let field_of_bit b = if b then Sb_crypto.Field.one else Sb_crypto.Field.zero
