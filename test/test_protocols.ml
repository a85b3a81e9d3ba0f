(* Tests for sb_protocols: the parallel-broadcast contract of every
   protocol under honest runs and the adversary battery, VSS-session
   behaviour under malicious dealers, the Theta function, Multi-bit
   wrapping, round formulas, and commit-open's deliberate weakness. *)

open Sb_sim

let seed = ref 100

let fresh_rng () =
  incr seed;
  Sb_util.Rng.create (90000 + !seed)

let make_ctx ?(backend = Sb_crypto.Commit.Hash) ?(n = 5) ?(thresh = 2) () =
  Ctx.make ~backend ~rng:(fresh_rng ()) ~n ~thresh ~k:16 ()

let all_protocols =
  [
    ("ideal-fsb", Sb_protocols.Ideal_sb.protocol);
    ("cgma-vss", Sb_protocols.Cgma.protocol);
    ("chor-rabin-log", Sb_protocols.Chor_rabin.protocol);
    ("gennaro-constant", Sb_protocols.Gennaro.protocol);
    ("pi-g", Sb_protocols.Pi_g.protocol);
    ("naive-sequential", Sb_protocols.Naive.sequential);
    ("naive-concurrent", Sb_protocols.Naive.concurrent);
    ("commit-open", Sb_protocols.Commit_open.protocol);
  ]

let announced (r : Network.result) =
  match r.Network.outputs with
  | (_, m) :: _ -> Msg.to_bitvec_exn m
  | [] -> Alcotest.fail "no honest outputs"

let check_consistent (r : Network.result) =
  match r.Network.outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | (_, first) :: rest ->
      List.iter
        (fun (_, m) -> Alcotest.(check bool) "consistency" true (Msg.equal m first))
        rest

(* --- honest-run contract ------------------------------------------- *)

let test_honest_contract (p : Protocol.t) () =
  List.iter
    (fun v ->
      let ctx = make_ctx () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
      check_consistent r;
      Alcotest.(check string)
        (Printf.sprintf "correctness on %s" (Sb_util.Bitvec.to_string x))
        (Sb_util.Bitvec.to_string x)
        (Sb_util.Bitvec.to_string (announced r)))
    [ 0; 1; 21; 30; 31 ]

let test_honest_contract_varied_sizes (p : Protocol.t) () =
  List.iter
    (fun (n, thresh) ->
      let ctx = make_ctx ~n ~thresh () in
      let x = Sb_util.Bitvec.init n (fun i -> i mod 3 = 0) in
      let inputs = Array.init n (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
      check_consistent r;
      Alcotest.(check string)
        (Printf.sprintf "n=%d" n)
        (Sb_util.Bitvec.to_string x)
        (Sb_util.Bitvec.to_string (announced r)))
    [ (2, 0); (3, 1); (4, 1); (7, 3); (9, 4) ]

let test_ideal_backend_matches_hash (p : Protocol.t) () =
  (* The two commitment backends must induce identical announced
     values on honest runs. *)
  let x = Sb_util.Bitvec.of_string "01101" in
  let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
  let run backend =
    let ctx = Ctx.make ~backend ~rng:(Sb_util.Rng.create 4321) ~n:5 ~thresh:2 ~k:16 () in
    announced (Network.honest_run ctx ~rng:(Sb_util.Rng.create 1234) ~protocol:p ~inputs)
  in
  Alcotest.(check string) "same announced vector"
    (Sb_util.Bitvec.to_string (run Sb_crypto.Commit.Hash))
    (Sb_util.Bitvec.to_string (run Sb_crypto.Commit.Ideal))

(* --- semi-honest corruption keeps the contract ---------------------- *)

let test_semi_honest_contract (p : Protocol.t) () =
  let ctx = make_ctx () in
  let x = Sb_util.Bitvec.of_string "11010" in
  let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
  let adv = Adversary.semi_honest p ~corrupt:[ 1; 3 ] in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  check_consistent r;
  Alcotest.(check string) "announced = inputs" (Sb_util.Bitvec.to_string x)
    (Sb_util.Bitvec.to_string (announced r))

(* --- silent corrupted parties announce the default ------------------ *)

let test_silent_defaults (p : Protocol.t) () =
  let ctx = make_ctx () in
  let x = Sb_util.Bitvec.of_string "11111" in
  let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
  let adv = Core.Adversaries.silent ~corrupt:[ 4 ] in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  check_consistent r;
  let w = announced r in
  Alcotest.(check bool) "silent party announces 0" false (Sb_util.Bitvec.get w 4);
  (* Honest coordinates are untouched. *)
  List.iter
    (fun i -> Alcotest.(check bool) "honest coordinate" true (Sb_util.Bitvec.get w i))
    [ 0; 1; 2; 3 ]

(* --- round formulas -------------------------------------------------- *)

let test_round_formulas () =
  let rounds p n = p.Protocol.rounds (make_ctx ~n ~thresh:((n - 1) / 2) ()) in
  (* Gennaro constant. *)
  Alcotest.(check int) "gennaro n=4" 4 (rounds Sb_protocols.Gennaro.protocol 4);
  Alcotest.(check int) "gennaro n=32" 4 (rounds Sb_protocols.Gennaro.protocol 32);
  (* CGMA linear: 3n + 1. *)
  Alcotest.(check int) "cgma n=4" 13 (rounds Sb_protocols.Cgma.protocol 4);
  Alcotest.(check int) "cgma n=8" 25 (rounds Sb_protocols.Cgma.protocol 8);
  (* Chor-Rabin logarithmic: floor(log2 n) + 6. *)
  Alcotest.(check int) "chor-rabin n=4" 8 (rounds Sb_protocols.Chor_rabin.protocol 4);
  Alcotest.(check int) "chor-rabin n=8" 9 (rounds Sb_protocols.Chor_rabin.protocol 8);
  Alcotest.(check int) "chor-rabin n=32" 11 (rounds Sb_protocols.Chor_rabin.protocol 32);
  (* Naive: n and 1. *)
  Alcotest.(check int) "naive-seq" 16 (rounds Sb_protocols.Naive.sequential 16);
  Alcotest.(check int) "naive-conc" 1 (rounds Sb_protocols.Naive.concurrent 16)

(* --- Theta / Pi_G ----------------------------------------------------- *)

let test_theta_g_no_flags () =
  let v = [| (true, false); (false, false); (true, false) |] in
  Alcotest.(check (array bool)) "identity" [| true; false; true |]
    (Sb_protocols.Theta.g ~r:true v)

let test_theta_g_two_flags () =
  (* l1 = 1, l2 = 3; y = x0 xor x2 xor x4. *)
  let v = [| (true, false); (false, true); (true, false); (false, true); (false, false) |] in
  let w_r b = Sb_protocols.Theta.g ~r:b v in
  List.iter
    (fun r ->
      let w = w_r r in
      Alcotest.(check bool) "w_l1 = r" r w.(1);
      Alcotest.(check bool) "w_l2 = r xor y" (r <> (true <> true <> false)) w.(3);
      (* Unflagged coordinates pass through. *)
      Alcotest.(check bool) "w0" true w.(0);
      Alcotest.(check bool) "w2" true w.(2);
      Alcotest.(check bool) "w4" false w.(4);
      (* The invariant of Claim 6.6: XOR of all outputs is 0. *)
      let parity = Array.fold_left (fun acc b -> if b then not acc else acc) false w in
      Alcotest.(check bool) "global parity zero" false parity)
    [ true; false ]

let test_theta_g_wrong_flag_count () =
  (* 1 or 3 flags: no leaking branch. *)
  let v1 = [| (true, true); (false, false); (true, false) |] in
  Alcotest.(check (array bool)) "one flag" [| true; false; true |]
    (Sb_protocols.Theta.g ~r:false v1);
  let v3 = [| (true, true); (false, true); (true, true) |] in
  Alcotest.(check (array bool)) "three flags" [| true; false; true |]
    (Sb_protocols.Theta.g ~r:false v3)

let test_pi_g_astar_forces_parity () =
  (* Claim 6.6 end-to-end: under A* the announced XOR is always 0. *)
  let astar = Core.Adversaries.a_star ~corrupt:(3, 4) in
  for trial = 1 to 20 do
    let ctx = make_ctx () in
    let rng = Sb_util.Rng.create (7000 + trial) in
    let inputs = Array.init 5 (fun _ -> Msg.Bit (Sb_util.Rng.bool rng)) in
    let r =
      Network.run ctx ~rng ~protocol:Sb_protocols.Pi_g.protocol ~adversary:astar ~inputs ()
    in
    Alcotest.(check bool) "xor = 0" false (Sb_util.Bitvec.parity (announced r))
  done

(* --- VSS session under a malicious dealer --------------------------- *)

(* Adversary: corrupted dealer 0 deals inconsistent shares (a wrong
   share to party 1) in Gennaro; party 1 complains; the dealer answers
   with a VALID share; sharing must succeed. Variant: dealer stays
   silent on complaints -> disqualified -> announced 0. *)
let bad_dealer ~answer_complaints =
  {
    Adversary.name = "bad-dealer";
    choose_corrupt = (fun _ ~rng:_ -> [ 0 ]);
    init =
      (fun ctx ~rng ~corrupted:_ ~inputs:_ ~aux:_ ->
        let n = ctx.Ctx.n in
        let dealt =
          Sb_crypto.Pedersen.deal rng ~threshold:ctx.Ctx.thresh ~parties:n
            ~secret:Sb_crypto.Field.one
        in
        let share_msg j =
          let s = dealt.Sb_crypto.Pedersen.shares.(j) in
          Msg.List [ Msg.Fe s.Sb_crypto.Pedersen.value; Msg.Fe s.Sb_crypto.Pedersen.blind ]
        in
        let act (view : Adversary.view) =
          match view.Adversary.round with
          | 0 ->
              (* Broadcast the true commitment, but hand party 1 a
                 corrupted share value. *)
              let comm =
                Msg.List
                  (Array.to_list
                     (Array.map (fun g -> Msg.Ge g) dealt.Sb_crypto.Pedersen.commitment))
              in
              Envelope.broadcast ~src:0 (Msg.Tag ("vss:0:comm", comm))
              :: List.filter_map
                   (fun j ->
                     if j = 0 then None
                     else
                       let body =
                         if j = 1 then
                           Msg.List [ Msg.Fe Sb_crypto.Field.zero; Msg.Fe Sb_crypto.Field.zero ]
                         else share_msg j
                       in
                       Some (Envelope.make ~src:0 ~dst:j (Msg.Tag ("vss:0:share", body))))
                   (List.init n Fun.id)
          | 2 when answer_complaints ->
              (* Answer party 1's complaint with its true share. *)
              [
                Envelope.broadcast ~src:0
                  (Msg.Tag
                     ( "vss:0:resp",
                       Msg.List
                         [
                           Msg.List
                             [
                               Msg.Int 1;
                               Msg.Fe dealt.Sb_crypto.Pedersen.shares.(1).Sb_crypto.Pedersen.value;
                               Msg.Fe dealt.Sb_crypto.Pedersen.shares.(1).Sb_crypto.Pedersen.blind;
                             ];
                         ] ));
              ]
          | _ -> []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let run_gennaro_with_dealer adv =
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r =
    Network.run ctx ~rng:(fresh_rng ()) ~protocol:Sb_protocols.Gennaro.protocol ~adversary:adv
      ~inputs ()
  in
  check_consistent r;
  announced r

let test_bad_dealer_recovers_with_response () =
  let w = run_gennaro_with_dealer (bad_dealer ~answer_complaints:true) in
  Alcotest.(check bool) "dealer 0 value recovered" true (Sb_util.Bitvec.get w 0)

let test_bad_dealer_disqualified_without_response () =
  let w = run_gennaro_with_dealer (bad_dealer ~answer_complaints:false) in
  Alcotest.(check bool) "dealer 0 disqualified -> 0" false (Sb_util.Bitvec.get w 0);
  List.iter
    (fun i -> Alcotest.(check bool) "honest values intact" true (Sb_util.Bitvec.get w i))
    [ 1; 2; 3; 4 ]

let test_copycat_disqualified () =
  (* Copying an honest dealer's commitment without knowing the shares
     gets the copycat disqualified, in every VSS-based protocol. *)
  List.iter
    (fun p ->
      let ctx = make_ctx () in
      let inputs = Array.make 5 (Msg.Bit true) in
      let adv = Core.Adversaries.copycat_dealer ~copier:4 ~target:0 in
      let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
      check_consistent r;
      let w = announced r in
      Alcotest.(check bool) "copycat announces 0" false (Sb_util.Bitvec.get w 4);
      Alcotest.(check bool) "target unaffected" true (Sb_util.Bitvec.get w 0))
    [ Sb_protocols.Gennaro.protocol; Sb_protocols.Chor_rabin.protocol ]

let test_reveal_withhold_ineffective_on_vss () =
  (* Withholding reveals cannot change a VSS-shared announced value. *)
  let p = Sb_protocols.Gennaro.protocol in
  let adv =
    Core.Adversaries.reveal_withhold p ~corrupt:[ 4 ]
      ~reveal_round:(fun _ -> Sb_protocols.Gennaro.reveal_round)
      ~reveal_tag_prefix:"vss:"
      ~honest_probe:(fun _ _ -> true) (* always withhold *)
  in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  let w = announced r in
  Alcotest.(check string) "all values recovered" "11111" (Sb_util.Bitvec.to_string w)

let test_reveal_withhold_effective_on_commit_open () =
  (* The same attack works against bare commit-open: the corrupted
     party's value is silently defaulted. *)
  let p = Sb_protocols.Commit_open.protocol in
  let adv =
    Core.Adversaries.reveal_withhold p ~corrupt:[ 4 ]
      ~reveal_round:(fun _ -> 1)
      ~reveal_tag_prefix:"co-open"
      ~honest_probe:(fun _ _ -> true)
  in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  let w = announced r in
  Alcotest.(check bool) "withheld value defaults to 0" false (Sb_util.Bitvec.get w 4)

let test_chor_rabin_bad_knowledge_tag () =
  (* A corrupted dealer that runs the whole protocol honestly EXCEPT
     for broadcasting a wrong knowledge tag is assigned 0 — the
     proof-of-knowledge step is load-bearing. *)
  let p = Sb_protocols.Chor_rabin.protocol in
  let base = Adversary.semi_honest p ~corrupt:[ 4 ] in
  let adv =
    {
      base with
      Adversary.init =
        (fun ctx ~rng ~corrupted ~inputs ~aux ->
          let s = base.Adversary.init ctx ~rng ~corrupted ~inputs ~aux in
          {
            s with
            Adversary.act =
              (fun view ->
                List.map
                  (fun (e : Envelope.t) ->
                    match e.Envelope.body with
                    | Msg.Tag ("cr-conf", Msg.Str _) ->
                        { e with Envelope.body = Msg.Tag ("cr-conf", Msg.Str "garbage") }
                    | _ -> e)
                  (s.Adversary.act view));
          });
    }
  in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  check_consistent r;
  let w = announced r in
  Alcotest.(check bool) "bad tag -> 0" false (Sb_util.Bitvec.get w 4);
  List.iter
    (fun i -> Alcotest.(check bool) "others intact" true (Sb_util.Bitvec.get w i))
    [ 0; 1; 2; 3 ]

(* --- VSS reveals and golden digests ------------------------------------ *)

let test_vss_reveal_collection () =
  (* One dealer's sharing among five honest sessions, then reveals fed
     by hand to party 1's session. t = 2, so three distinct verifying
     shares are needed. *)
  let n = 5 in
  let ctx = make_ctx ~n ~thresh:2 () in
  let dealt = Sb_crypto.Field.of_int 123457 in
  let sessions =
    Array.init n (fun me ->
        Sb_protocols.Vss_session.create ctx ~rng:(fresh_rng ()) ~dealer:0 ~me
          ~secret:(if me = 0 then Some dealt else None))
  in
  let sent = ref [] in
  for round = 0 to Sb_protocols.Vss_session.local_rounds do
    let inbox me = List.filter (fun e -> Envelope.delivered_to e me) !sent in
    sent :=
      List.concat
        (Array.to_list
           (Array.mapi (fun me s -> Sb_protocols.Vss_session.step s ~round ~inbox:(inbox me)) sessions))
  done;
  let observer = sessions.(1) in
  Alcotest.(check bool) "dealer not disqualified" false
    (Sb_protocols.Vss_session.disqualified observer);
  let reveal src =
    match Sb_protocols.Vss_session.reveal_msgs sessions.(src) with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected one reveal"
  in
  let tampered src =
    let e = reveal src in
    match e.Envelope.body with
    | Msg.Tag (tag, Msg.List [ Msg.Fe v; blind ]) ->
        { e with Envelope.body = Msg.Tag (tag, Msg.List [ Msg.Fe (Sb_crypto.Field.add v Sb_crypto.Field.one); blind ]) }
    | _ -> Alcotest.fail "unexpected reveal shape"
  in
  let secret () = Sb_protocols.Vss_session.secret observer in
  let fe = Alcotest.testable Sb_crypto.Field.pp Sb_crypto.Field.equal in
  (* An invalid reveal from 2 first; a duplicated valid reveal from 1
     counts once (a second copy would be a duplicate abscissa). *)
  Sb_protocols.Vss_session.collect_reveals observer [ tampered 2; reveal 3; reveal 1; reveal 1 ];
  Alcotest.(check (option fe)) "two verifying shares are not enough" None (secret ());
  (* A later valid reveal from 2 is still accepted; 3's first valid
     reveal stands against a later invalid one. *)
  Sb_protocols.Vss_session.collect_reveals observer [ tampered 3; reveal 2 ];
  Alcotest.(check (option fe)) "secret = dealt value" (Some dealt) (secret ())

(* Digest of every run's honest outputs, adversary output, round and
   message counts and [comm] block, over seeds 1..100. *)
let digest_runs ~protocol ~adversary ?faults () =
  let n = 5 in
  let buf = Buffer.create 4096 in
  for s = 1 to 100 do
    let ctx = Ctx.make ~rng:(Sb_util.Rng.create (1000 + s)) ~n ~thresh:2 ~k:8 () in
    let rng = Sb_util.Rng.create s in
    let inputs = Array.init n (fun _ -> Msg.Bit (Sb_util.Rng.bool rng)) in
    let r =
      Network.run ctx ~rng ~protocol ~adversary ~inputs ~record_trace:false ~record_comm:true
        ?faults ()
    in
    List.iter
      (fun (i, m) -> Buffer.add_string buf (Printf.sprintf "%d=%s;" i (Msg.to_string m)))
      r.Network.outputs;
    Buffer.add_string buf (Msg.to_string r.Network.adv_output);
    let comm =
      match r.Network.comm with
      | None -> "-"
      | Some c ->
          Printf.sprintf "%d/%d/%d/%d" c.Network.broadcasts c.Network.broadcast_bytes
            c.Network.p2p_bytes c.Network.deliveries
    in
    Buffer.add_string buf
      (Printf.sprintf "|%d|%d|%s\n" r.Network.rounds_used r.Network.p2p_messages comm)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_vss_golden () =
  (* Pinned digests of 100 seeded runs per VSS protocol and
     configuration: outputs, traffic and RNG streams must stay
     bit-identical across changes to the session code. *)
  let drop =
    match Sb_fault.Plan.of_string "drop:0.2" with
    | Ok plan -> Sb_fault.Inject.compile ~n:5 plan
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, (p : Protocol.t), passive, semi_honest, dropped) ->
      let check label expected ?faults adversary =
        Alcotest.(check string) (name ^ " " ^ label) expected
          (digest_runs ~protocol:p ~adversary ?faults ())
      in
      check "passive" passive (Adversary.passive p);
      check "semi-honest {3,4}" semi_honest (Adversary.semi_honest p ~corrupt:[ 3; 4 ]);
      check "drop:0.2" dropped ~faults:drop (Adversary.passive p))
    [
      ( "cgma-vss", Sb_protocols.Cgma.protocol, "b1601668b477a850d200f9a64b404806",
        "b29ec28b250e086a0799010bc7c19c2c", "171b57c14fa92c6ad4f0ad4c791b78e2" );
      ( "gennaro-constant", Sb_protocols.Gennaro.protocol, "ad5b1c6f73e86cea159af2b31896719f",
        "32ede1025c6374ce72d327c049647e6e", "4b44ac7b6c253351dae8d902f8371b44" );
      ( "chor-rabin-log", Sb_protocols.Chor_rabin.protocol, "aed8fcd023ca64868b540d2317204e75",
        "ce07d86b03cab8421fae0a68d6ef9cea", "b263dea808da38faaa96983e254b8d69" );
    ]

(* --- content-keyed memos vs the raw kernels ---------------------------- *)

module Once = Sb_protocols.Once
module Ped = Sb_crypto.Pedersen

type key_field = Elt of int | Index | Value | Blind | Longer

(* The key with one field replaced by a fresh random value; [Longer]
   appends a commitment element instead. *)
let mutate rng (c, (s : Ped.share)) = function
  | Elt j ->
      let c' = Array.copy c in
      c'.(j) <- Sb_crypto.Modgroup.pow_g (Sb_crypto.Field.random rng);
      (c', s)
  | Index -> (c, { s with Ped.index = Sb_util.Rng.int rng (1 lsl 20) })
  | Value -> (c, { s with Ped.value = Sb_crypto.Field.random rng })
  | Blind -> (c, { s with Ped.blind = Sb_crypto.Field.random rng })
  | Longer -> (Array.append c [| Sb_crypto.Modgroup.pow_g (Sb_crypto.Field.random rng) |], s)

(* Rejection-samples a key that differs from [key] by [change] and maps
   to the same memo slot, so the two evict each other and a comparison
   that skips the changed field returns the other key's result. *)
let colliding ~slot ~change key =
  let rec go tries =
    if tries = 0 then Alcotest.fail "no colliding key found"
    else
      let k' = change key in
      if slot k' = slot key && k' <> key then k' else go (tries - 1)
  in
  go 1_000_000

let qcheck_verify_memo =
  QCheck.Test.make ~count:20 ~name:"Once.verify_share = Pedersen.verify_share"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let agree (c, s) = Bool.equal (Once.verify_share c s) (Ped.verify_share c s) in
      let slot (c, s) = Once.verify_slot c s in
      (* A valid share and its tampered twin for each t = 1 .. 7. *)
      let keys =
        List.concat_map
          (fun t ->
            let parties = t + 1 + Sb_util.Rng.int rng 3 in
            let d =
              Ped.deal rng ~threshold:t ~parties ~secret:(Sb_crypto.Field.random rng)
            in
            let s = d.Ped.shares.(Sb_util.Rng.int rng parties) in
            [ (d.Ped.commitment, s);
              (d.Ped.commitment, { s with Ped.value = Sb_crypto.Field.add s.Ped.value Sb_crypto.Field.one }) ])
          [ 1; 2; 3; 4; 5; 6; 7 ]
      in
      let probe ((c, _) as key) =
        (* Exact repeats, then every one-field variant in the key's slot,
           alternating with the key so each evicts the other. *)
        agree key && agree key
        && List.for_all
             (fun field ->
               let v = colliding ~slot ~change:(fun k -> mutate rng k field) key in
               agree v && agree key && agree v && agree v && agree key)
             (Longer :: Index :: Value :: Blind :: List.init (Array.length c) (fun j -> Elt j))
      in
      List.for_all probe keys && List.for_all agree (List.rev keys))

let qcheck_digest_memo =
  QCheck.Test.make ~count:20 ~name:"Once.digest = Sha256.digest" QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let agree s = String.equal (Once.digest s) (Sb_crypto.Sha256.digest s) in
      let fresh () = Sb_util.Rng.bytes rng (16 + Sb_util.Rng.int rng 64) in
      let one_byte s =
        let b = Bytes.of_string s in
        let i = Sb_util.Rng.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr ((Char.code s.[i] + 1 + Sb_util.Rng.int rng 255) land 255));
        Bytes.to_string b
      in
      let longer s = s ^ Sb_util.Rng.bytes rng (1 + Sb_util.Rng.int rng 8) in
      let inputs =
        List.init 6 (fun _ -> fresh ())
        @ List.init 4 (fun d ->
              Printf.sprintf "cr-pok:%s:%d:%d:%d" (fresh ()) d (Sb_util.Rng.int rng Sb_crypto.Field.p)
                (Sb_util.Rng.int rng Sb_crypto.Field.p))
      in
      let probe s =
        agree s && agree s
        && List.for_all
             (fun change ->
               let v = colliding ~slot:Once.digest_slot ~change s in
               agree v && agree s && agree v && agree v && agree s)
             [ one_byte; longer; (fun _ -> fresh ()) ]
      in
      List.for_all probe inputs && List.for_all agree (List.rev inputs))

(* --- equivocating revealer --------------------------------------------- *)

(* A corrupted revealer sends, point to point, a different variant of its
   reveal to each receiver: [variant ~corrupt ~receiver] picks its own
   valid share, a tampered copy (value + 1), or another party's valid
   share under its own name. *)
type variant = Valid | Tampered | Other_index

let variant ~corrupt ~receiver =
  match (corrupt + receiver) mod 3 with 0 -> Valid | 1 -> Tampered | _ -> Other_index

let tamper = function
  | Msg.List [ Msg.Fe v; blind ] -> Msg.List [ Msg.Fe (Sb_crypto.Field.add v Sb_crypto.Field.one); blind ]
  | m -> m

(* Session level, against the unmemoised reference: dealer 0 shares
   among five sessions, then every receiver gets the honest reveals of
   1 and 2 and corrupted party 4's variant, so that variant decides
   whether the receiver reaches t + 1 = 3 verifying shares. A receiver
   given a bad variant later gets party 3's reveal too. Returns one line
   per receiver, or the first disagreement with the reference. *)
let equivocation_scenario seed =
  let n = 5 in
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create (7000 + seed)) ~n ~thresh:2 ~k:8 () in
  let rng = Sb_util.Rng.create seed in
  let dealt = Sb_crypto.Field.random rng in
  let sessions =
    Array.init n (fun me ->
        Sb_protocols.Vss_session.create ctx ~rng:(Sb_util.Rng.split rng) ~dealer:0 ~me
          ~secret:(if me = 0 then Some dealt else None))
  in
  let commitment = ref [||] in
  let sent = ref [] in
  for round = 0 to Sb_protocols.Vss_session.local_rounds do
    let inbox me = List.filter (fun e -> Envelope.delivered_to e me) !sent in
    sent :=
      List.concat
        (Array.to_list
           (Array.mapi (fun me s -> Sb_protocols.Vss_session.step s ~round ~inbox:(inbox me)) sessions));
    List.iter
      (fun (e : Envelope.t) ->
        match e.Envelope.body with
        | Msg.Tag ("vss:0:comm", Msg.List elts) ->
            commitment := Array.of_list (List.map (function Msg.Ge g -> g | _ -> assert false) elts)
        | _ -> ())
      !sent
  done;
  let body src =
    match Sb_protocols.Vss_session.reveal_msgs sessions.(src) with
    | [ { Envelope.body = Msg.Tag (_, m); _ } ] -> m
    | _ -> failwith "expected one reveal"
  in
  let reveal ~src ~dst m = Envelope.make ~src ~dst (Msg.Tag ("vss:0:reveal", m)) in
  let from4 receiver =
    match variant ~corrupt:4 ~receiver with
    | Valid -> body 4
    | Tampered -> tamper (body 4)
    | Other_index -> body 0
  in
  (* The reference: the first verifying reveal per source, by the raw
     kernel. *)
  let reference batches =
    let accepted = Array.make n None in
    List.iter
      (List.iter (fun (e : Envelope.t) ->
           match (Envelope.src_party e, e.Envelope.body) with
           | Some src, Msg.Tag (_, Msg.List [ Msg.Fe value; Msg.Fe blind ])
             when Option.is_none accepted.(src) ->
               let s = { Sb_crypto.Pedersen.index = src; value; blind } in
               if Sb_crypto.Pedersen.verify_share !commitment s then accepted.(src) <- Some s
           | _ -> ()))
      batches;
    let shares = List.filter_map Fun.id (Array.to_list accepted) in
    if List.length shares >= 3 then
      (Some (Sb_crypto.Pedersen.reconstruct shares), Some (Sb_crypto.Pedersen.reconstruct_blind shares))
    else (None, None)
  in
  let show = function None -> "-" | Some f -> string_of_int (Sb_crypto.Field.to_int f) in
  List.map
    (fun receiver ->
      let first = [ reveal ~src:4 ~dst:receiver (from4 receiver); reveal ~src:1 ~dst:receiver (body 1);
                    reveal ~src:2 ~dst:receiver (body 2) ] in
      let batches =
        if variant ~corrupt:4 ~receiver = Valid then [ first ]
        else [ first; [ reveal ~src:3 ~dst:receiver (body 3) ] ]
      in
      let observer = sessions.(receiver) in
      List.iter (Sb_protocols.Vss_session.collect_reveals observer) batches;
      let got = (Sb_protocols.Vss_session.secret observer, Sb_protocols.Vss_session.blind observer) in
      let want = reference batches in
      if got <> want then
        Printf.sprintf "seed %d receiver %d: got %s/%s, reference %s/%s" seed receiver (show (fst got))
          (show (snd got)) (show (fst want)) (show (snd want))
      else Printf.sprintf "%d:%s/%s" receiver (show (fst got)) (show (snd got)))
    [ 0; 1; 2; 3 ]
  |> String.concat ";"

(* Network level: corrupted parties 3 and 4 run the protocol honestly
   but replace each of their reveal broadcasts by per-receiver point-to-
   point variants; the other-index variant forwards the lowest honest
   party's same-round reveal, read off the rushed view. *)
let equivocating_revealer (p : Protocol.t) =
  let base = Adversary.semi_honest p ~corrupt:[ 3; 4 ] in
  let is_reveal tag = String.ends_with ~suffix:":reveal" tag in
  {
    base with
    Adversary.name = "equivocating-revealer";
    init =
      (fun ctx ~rng ~corrupted ~inputs ~aux ->
        let s = base.Adversary.init ctx ~rng ~corrupted ~inputs ~aux in
        {
          s with
          Adversary.act =
            (fun view ->
              let honest_reveal tag =
                List.find_map
                  (fun (e : Envelope.t) ->
                    match e.Envelope.body with
                    | Msg.Tag (t, m) when String.equal t tag -> Some m
                    | _ -> None)
                  view.Adversary.rushed
              in
              List.concat_map
                (fun (e : Envelope.t) ->
                  match (Envelope.src_party e, e.Envelope.body) with
                  | Some src, Msg.Tag (tag, m) when Envelope.is_broadcast e && is_reveal tag ->
                      List.init ctx.Ctx.n (fun dst ->
                          let m' =
                            match variant ~corrupt:src ~receiver:dst with
                            | Valid -> m
                            | Tampered -> tamper m
                            | Other_index -> Option.value (honest_reveal tag) ~default:m
                          in
                          Envelope.make ~src ~dst (Msg.Tag (tag, m')))
                  | _ -> [ e ])
                (s.Adversary.act view));
        });
  }

let equivocation_run (p : Protocol.t) seed =
  let n = 5 in
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create (1000 + seed)) ~n ~thresh:2 ~k:8 () in
  let rng = Sb_util.Rng.create seed in
  let inputs = Array.init n (fun _ -> Msg.Bit (Sb_util.Rng.bool rng)) in
  let r =
    Network.run ctx ~rng ~protocol:p ~adversary:(equivocating_revealer p) ~inputs ~record_trace:false
      ~record_comm:true ()
  in
  let outputs =
    List.map (fun (i, m) -> Printf.sprintf "%d=%s;" i (Msg.to_string m)) r.Network.outputs
  in
  let expected = Msg.bits (Array.to_list (Array.map Msg.to_bit_exn inputs)) in
  ( List.for_all (fun (_, m) -> Msg.equal m expected) r.Network.outputs,
    Printf.sprintf "%s|%d|%d\n" (String.concat "" outputs) r.Network.rounds_used r.Network.p2p_messages )

let with_pool domains f =
  let pool = Sb_par.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Sb_par.Pool.shutdown pool) (fun () -> f pool)

(* The golden digests were captured with every share check on the raw
   kernel. Both pool sizes run in one process, so the runs land on one
   and then two domain-local memo tables. *)
let test_equivocating_revealer () =
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let seeds = Array.init 24 (fun i -> i + 1) in
          let lines = Sb_par.Pool.map_chunks pool ~f:equivocation_scenario seeds in
          Array.iter (fun l -> if String.starts_with ~prefix:"seed" l then Alcotest.fail l) lines;
          Alcotest.(check string)
            (Printf.sprintf "session level, %d domains" domains)
            "7053f712dcf8a6f072acc8ab55b36640"
            (Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list lines))));
          List.iter
            (fun (name, p, expected) ->
              let runs = Sb_par.Pool.map_chunks pool ~f:(equivocation_run p) (Array.init 40 (fun i -> i + 1)) in
              Alcotest.(check bool) (name ^ " announces every input") true (Array.for_all fst runs);
              Alcotest.(check string)
                (Printf.sprintf "%s, %d domains" name domains)
                expected
                (Digest.to_hex (Digest.string (String.concat "" (Array.to_list (Array.map snd runs))))))
            [
              ("cgma-vss", Sb_protocols.Cgma.protocol, "807a6bdd4dfa7f6ab01f00b7f19a58b3");
              ("gennaro-constant", Sb_protocols.Gennaro.protocol, "5bc44dca7841aeff46b9cf9534a6bad4");
              ("chor-rabin-log", Sb_protocols.Chor_rabin.protocol, "57467b57824053f0f6c3b7d6c8a057b3");
            ]))
    [ 1; 2 ]

(* --- Multi wrapper ---------------------------------------------------- *)

let test_multi_roundtrip () =
  let p = Sb_protocols.Multi.wrap ~bits:4 Sb_protocols.Gennaro.protocol in
  let ctx = make_ctx () in
  let values = [| 9; 4; 12; 7; 3 |] in
  let inputs = Array.map (fun v -> Msg.Int v) values in
  let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
  check_consistent r;
  match r.Network.outputs with
  | (_, Msg.List vals) :: _ ->
      List.iteri
        (fun i m -> Alcotest.(check int) (Printf.sprintf "value %d" i) values.(i) (Msg.to_int_exn m))
        vals
  | _ -> Alcotest.fail "bad output shape"

let test_multi_rejects_out_of_range () =
  let p = Sb_protocols.Multi.wrap ~bits:3 Sb_protocols.Naive.concurrent in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Int 9) in
  Alcotest.check_raises "out of range" (Invalid_argument "Multi.wrap: input out of range")
    (fun () -> ignore (Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs))

let test_multi_rejects_functionality () =
  Alcotest.check_raises "functionality"
    (Invalid_argument "Multi.wrap: base protocol uses a functionality") (fun () ->
      ignore (Sb_protocols.Multi.wrap ~bits:2 Sb_protocols.Pi_g.protocol))

let test_multi_same_rounds () =
  let base = Sb_protocols.Gennaro.protocol in
  let p = Sb_protocols.Multi.wrap ~bits:8 base in
  let ctx = make_ctx () in
  Alcotest.(check int) "concurrent instances, same rounds" (base.Protocol.rounds ctx)
    (p.Protocol.rounds ctx)

(* --- property tests: the contract under random inputs and seeds ------ *)

let qcheck_honest_contract (name, (p : Protocol.t)) =
  QCheck.Test.make
    ~name:(name ^ ": honest contract on random inputs/seeds")
    ~count:40
    QCheck.(pair (int_bound 31) (int_bound 1_000_000))
    (fun (v, seed) ->
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 1)) ~n:5 ~thresh:2 ~k:16 () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(Sb_util.Rng.create (seed + 2)) ~protocol:p ~inputs in
      match r.Network.outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all (fun (_, m) -> Msg.equal m first) rest
          && Sb_util.Bitvec.equal x (Msg.to_bitvec_exn first))

let qcheck_semi_honest_contract (name, (p : Protocol.t)) =
  QCheck.Test.make
    ~name:(name ^ ": semi-honest contract on random corruption")
    ~count:25
    QCheck.(triple (int_bound 31) (int_bound 1_000_000) (int_bound 9))
    (fun (v, seed, cpick) ->
      let corrupt = Sb_util.Subset.of_list [ cpick mod 5; (cpick / 2) mod 5 ] in
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 3)) ~n:5 ~thresh:2 ~k:16 () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let adv = Adversary.semi_honest p ~corrupt in
      let r = Network.run ctx ~rng:(Sb_util.Rng.create (seed + 4)) ~protocol:p ~adversary:adv ~inputs () in
      match r.Network.outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all (fun (_, m) -> Msg.equal m first) rest
          && Sb_util.Bitvec.equal x (Msg.to_bitvec_exn first))

(* A* on Pi_G forces zero parity for EVERY input and seed (Claim 6.6). *)
let qcheck_astar_parity =
  QCheck.Test.make ~name:"pi-g + A*: xor of announced always 0" ~count:60
    QCheck.(pair (int_bound 31) (int_bound 1_000_000))
    (fun (v, seed) ->
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 5)) ~n:5 ~thresh:2 ~k:16 () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r =
        Network.run ctx
          ~rng:(Sb_util.Rng.create (seed + 6))
          ~protocol:Sb_protocols.Pi_g.protocol
          ~adversary:(Core.Adversaries.a_star ~corrupt:(3, 4))
          ~inputs ()
      in
      match r.Network.outputs with
      | (_, m) :: _ -> not (Sb_util.Bitvec.parity (Msg.to_bitvec_exn m))
      | [] -> false)

(* Multi-bit wrapping commutes with the bit decomposition. *)
let qcheck_multi_roundtrip =
  QCheck.Test.make ~name:"multi wrapper roundtrip" ~count:20
    QCheck.(pair (list_of_size (QCheck.Gen.return 5) (int_bound 15)) (int_bound 1_000_000))
    (fun (vals, seed) ->
      let p = Sb_protocols.Multi.wrap ~bits:4 Sb_protocols.Naive.concurrent in
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 7)) ~n:5 ~thresh:2 ~k:16 () in
      let inputs = Array.of_list (List.map (fun v -> Msg.Int v) vals) in
      let r = Network.honest_run ctx ~rng:(Sb_util.Rng.create (seed + 8)) ~protocol:p ~inputs in
      match r.Network.outputs with
      | (_, Msg.List out) :: _ ->
          List.for_all2 (fun v m -> Msg.to_int_exn m = v) vals out
      | _ -> false)

(* --- the CGMA compiler -------------------------------------------------- *)

let run_compiled base ~epochs ~inputs ~seed =
  let program = Sb_protocols.Compiler.xor_coin_program ~rounds:epochs in
  let p = Sb_protocols.Compiler.compile program ~using:base in
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create seed) ~n:5 ~thresh:2 ~k:16 () in
  let r = Network.honest_run ctx ~rng:(Sb_util.Rng.create (seed + 1)) ~protocol:p ~inputs in
  check_consistent r;
  match r.Network.outputs with (_, m) :: _ -> m | [] -> Alcotest.fail "no outputs"

let test_compiler_hybrid_equivalence () =
  (* The compiler theorem, on honest runs: the program's outputs are
     identical whether the epochs run over the ideal SB functionality
     or over a real simultaneous broadcast protocol. *)
  let inputs = Array.init 5 (fun i -> Msg.Bit (i mod 2 = 0)) in
  let hybrid = run_compiled Sb_protocols.Ideal_sb.protocol ~epochs:3 ~inputs ~seed:50 in
  List.iter
    (fun base ->
      let compiled = run_compiled base ~epochs:3 ~inputs ~seed:60 in
      Alcotest.(check bool)
        ("hybrid = compiled over " ^ base.Protocol.name)
        true (Msg.equal hybrid compiled))
    [ Sb_protocols.Gennaro.protocol; Sb_protocols.Naive.sequential ]

let test_compiler_epoch_count () =
  let program = Sb_protocols.Compiler.xor_coin_program ~rounds:4 in
  let p = Sb_protocols.Compiler.compile program ~using:Sb_protocols.Gennaro.protocol in
  let ctx = make_ctx () in
  (* 4 epochs of (4 base rounds + 1 window step) - 1. *)
  Alcotest.(check int) "rounds" 19 (p.Protocol.rounds ctx);
  let inputs = Array.make 5 (Msg.Bit true) in
  match
    (Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs).Network.outputs
  with
  | (_, Msg.List coins) :: _ -> Alcotest.(check int) "4 coins" 4 (List.length coins)
  | _ -> Alcotest.fail "bad output"

let test_compiler_window () =
  Alcotest.(check (pair int int)) "epoch 2 over 4-round base" (10, 14)
    (Sb_protocols.Compiler.epoch_window ~base_rounds:4 ~epoch:2)

let test_compiler_semi_honest_matches () =
  (* Semi-honest corruption must not change the coins either. *)
  let program = Sb_protocols.Compiler.xor_coin_program ~rounds:2 in
  let p = Sb_protocols.Compiler.compile program ~using:Sb_protocols.Gennaro.protocol in
  let ctx = make_ctx () in
  let inputs = Array.init 5 (fun i -> Msg.Bit (i < 2)) in
  let honest = Network.honest_run ctx ~rng:(Sb_util.Rng.create 70) ~protocol:p ~inputs in
  let ctx2 = make_ctx () in
  let semi =
    Network.run ctx2 ~rng:(Sb_util.Rng.create 70) ~protocol:p
      ~adversary:(Adversary.semi_honest p ~corrupt:[ 4 ])
      ~inputs ()
  in
  match (honest.Network.outputs, semi.Network.outputs) with
  | (_, a) :: _, (_, b) :: _ -> Alcotest.(check bool) "same coins" true (Msg.equal a b)
  | _ -> Alcotest.fail "missing outputs"

(* --- registry --------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "7 registered" 7 (List.length Sb_protocols.Registry.all);
  Alcotest.(check bool) "find gennaro" true
    (Option.is_some (Sb_protocols.Registry.find "gennaro-constant"));
  Alcotest.(check bool) "find nonsense" true
    (Option.is_none (Sb_protocols.Registry.find "nonsense"));
  Alcotest.(check int) "simultaneous subset" 4 (List.length Sb_protocols.Registry.simultaneous)

(* --- driver ----------------------------------------------------------- *)

let () =
  let per_protocol (name, p) =
    ( name,
      [
        Alcotest.test_case "honest contract" `Quick (test_honest_contract p);
        Alcotest.test_case "varied sizes" `Quick (test_honest_contract_varied_sizes p);
        Alcotest.test_case "semi-honest contract" `Quick (test_semi_honest_contract p);
        Alcotest.test_case "silent defaults" `Quick (test_silent_defaults p);
        Alcotest.test_case "backend equivalence" `Quick (test_ideal_backend_matches_hash p);
      ] )
  in
  Alcotest.run "sb_protocols"
    (List.map per_protocol all_protocols
    @ [
        ("rounds", [ Alcotest.test_case "formulas" `Quick test_round_formulas ]);
        ( "theta",
          [
            Alcotest.test_case "g identity" `Quick test_theta_g_no_flags;
            Alcotest.test_case "g leaking branch" `Quick test_theta_g_two_flags;
            Alcotest.test_case "g wrong flag counts" `Quick test_theta_g_wrong_flag_count;
            Alcotest.test_case "A* forces parity 0" `Quick test_pi_g_astar_forces_parity;
          ] );
        ( "vss-robustness",
          [
            Alcotest.test_case "bad dealer, valid response" `Quick
              test_bad_dealer_recovers_with_response;
            Alcotest.test_case "bad dealer, no response" `Quick
              test_bad_dealer_disqualified_without_response;
            Alcotest.test_case "copycat disqualified" `Quick test_copycat_disqualified;
            Alcotest.test_case "withhold vs VSS" `Quick test_reveal_withhold_ineffective_on_vss;
            Alcotest.test_case "withhold vs commit-open" `Quick
              test_reveal_withhold_effective_on_commit_open;
            Alcotest.test_case "chor-rabin bad knowledge tag" `Quick
              test_chor_rabin_bad_knowledge_tag;
            Alcotest.test_case "reveal collection" `Quick test_vss_reveal_collection;
            Alcotest.test_case "golden digests" `Quick test_vss_golden;
            Alcotest.test_case "equivocating revealer" `Quick test_equivocating_revealer;
          ] );
        ( "multi",
          [
            Alcotest.test_case "roundtrip" `Quick test_multi_roundtrip;
            Alcotest.test_case "out of range" `Quick test_multi_rejects_out_of_range;
            Alcotest.test_case "no functionality" `Quick test_multi_rejects_functionality;
            Alcotest.test_case "same rounds" `Quick test_multi_same_rounds;
          ] );
        ( "compiler",
          [
            Alcotest.test_case "hybrid equivalence" `Quick test_compiler_hybrid_equivalence;
            Alcotest.test_case "epoch count" `Quick test_compiler_epoch_count;
            Alcotest.test_case "window" `Quick test_compiler_window;
            Alcotest.test_case "semi-honest equivalence" `Quick test_compiler_semi_honest_matches;
          ] );
        ("registry", [ Alcotest.test_case "lookup" `Quick test_registry ]);
        ( "properties",
          List.map QCheck_alcotest.to_alcotest
            (List.map qcheck_honest_contract all_protocols
            @ List.map qcheck_semi_honest_contract
                (List.filter (fun (n, _) -> n <> "ideal-fsb") all_protocols)
            @ [ qcheck_astar_parity; qcheck_multi_roundtrip; qcheck_verify_memo; qcheck_digest_memo ]) );
      ])
