type t = { mutable mailboxes : Router.t; mutable staging : Router.t }

let create ~cap n = { mailboxes = Router.create ~cap n; staging = Router.create ~cap n }
let clear t = Router.clear t.mailboxes
let mailboxes t = t.mailboxes

(* Authenticated channels; a loop rather than a closure over [id], so
   the check allocates nothing. *)
let rec speaks_as id = function
  | [] -> true
  | e :: rest -> Envelope.src_is e id && speaks_as id rest

let step t ~round parties =
  List.concat_map
    (fun (id, party) ->
      let out = party.Party.step ~round ~inbox:(Router.inbox t.mailboxes id) in
      assert (speaks_as id out);
      out)
    parties

let route t queue ~replies =
  let next = t.staging in
  Router.clear next;
  List.iter (fun e -> if not (Envelope.is_func_bound e) then Router.route next e) queue;
  Router.route_all next replies;
  t.staging <- t.mailboxes;
  t.mailboxes <- next
