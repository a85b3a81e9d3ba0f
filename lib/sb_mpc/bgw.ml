open Sb_sim
open Sb_crypto

let rounds circuit = 2 + Circuit.layers circuit

(* Lagrange coefficients at 0 for the point set {1, …, n}: the public
   recombination vector of GRR degree reduction (valid for any shared
   polynomial of degree < n, in particular the degree-2t products).
   Served by the shared coefficient cache — one O(n²) computation per
   domain instead of one per party per run. *)
let lambdas n = Lagrange.at_zero n

let encode_pairs tag pairs =
  Msg.Tag (tag, Msg.List (List.map (fun (w, v) -> Msg.List [ Msg.Int w; Msg.Fe v ]) pairs))

(* [f src w v] for every well-formed (wire, value) pair of every
   [tag]-tagged envelope from a party, in inbox order. Pairs naming a
   wire outside [0, nwires) are dropped: a corrupted sender must not be
   able to crash an honest party's step. *)
let iter_pairs tag ~nwires inbox f =
  List.iter
    (fun (e : Envelope.t) ->
      match (e.Envelope.src, e.Envelope.body) with
      | Envelope.Party src, Msg.Tag (t, Msg.List l) when String.equal t tag ->
          List.iter
            (function
              | Msg.List [ Msg.Int w; Msg.Fe v ] when w >= 0 && w < nwires -> f src w v
              | _ -> ())
            l
      | _ -> ())
    inbox

(* One-byte flags: [known] per wire, [seen] per (slot, source). *)
let flag b i = Bytes.get b i <> '\000'
let set_flag b i = Bytes.set b i '\001'

let protocol ~name ~circuit ~encode ~decode =
  let total_rounds = rounds circuit in
  (* The circuit is immutable once the protocol is built, so every
     derived view is computed here rather than per party step: the
     gates array, each layer's mult wires in wire order, a slot per
     mult wire and per distinct output wire, and the per-layer wire
     tags. The samplers run one [make_party] per party per Monte-Carlo
     run. *)
  let n_layers = Circuit.layers circuit in
  let gates = Circuit.gates circuit in
  let nwires = Array.length gates in
  let output_wires = List.map Circuit.wire_index (Circuit.outputs circuit) in
  let layer_muls = Array.make (max 1 n_layers) [] in
  for w = nwires - 1 downto 0 do
    match gates.(w) with
    | Circuit.Mul _ ->
        let l = Circuit.mul_layer circuit w in
        layer_muls.(l) <- w :: layer_muls.(l)
    | _ -> ()
  done;
  let slots_of wires =
    let slot = Array.make nwires (-1) in
    let k = ref 0 in
    List.iter
      (fun w ->
        if slot.(w) < 0 then begin
          slot.(w) <- !k;
          incr k
        end)
      wires;
    (slot, !k)
  in
  let mul_slot, n_mul = slots_of (List.concat (Array.to_list layer_muls)) in
  let out_slot, n_out = slots_of output_wires in
  let mul_tag = Array.init (max 1 n_layers) (fun l -> "bgw:mul:" ^ string_of_int l) in
  let make_party (ctx : Ctx.t) ~rng ~id ~input =
    assert (Circuit.n_parties circuit = ctx.Ctx.n);
    assert (2 * ctx.Ctx.thresh < ctx.Ctx.n);
    let n = ctx.Ctx.n in
    let t = ctx.Ctx.thresh in
    let lam = lambdas n in
    (* My circuit inputs, in declaration order. *)
    let my_inputs = encode ~rng ~id input in
    if List.length my_inputs <> Circuit.input_count circuit ~party:id then
      invalid_arg "Bgw.protocol: encode arity mismatch";
    let my_inputs = Array.of_list my_inputs in
    (* My share of every wire evaluated so far. A wire is evaluated
       once: input wires when round 1's shares arrive, mult wires when
       their last degree-reduction subshare arrives, every other wire
       by [advance] as soon as its operands are known. *)
    let values = Array.make nwires Field.zero in
    let known = Bytes.make nwires '\000' in
    (* Degree reduction per mult wire: the running recombination
       Σ λ_src · subshare_src over the sources seen so far (the first
       subshare from each source counts), keyed by wire, not by layer. *)
    let mul_acc = Array.make n_mul Field.zero in
    let mul_count = Array.make n_mul 0 in
    let mul_seen = Bytes.make (n_mul * n) '\000' in
    (* Output shares per distinct output wire and source; first wins. *)
    let out_vals = Array.make (n_out * n) Field.zero in
    let out_seen = Bytes.make (n_out * n) '\000' in
    let result = ref Msg.Unit in
    let set w v =
      values.(w) <- v;
      set_flag known w
    in
    let advance () =
      Array.iteri
        (fun w g ->
          if not (flag known w) then
            match g with
            | Circuit.Input _ | Circuit.Mul _ -> ()
            | Circuit.Const v -> set w v (* shared as the constant polynomial *)
            | Circuit.Add (a, b) ->
                let a = (a :> int) and b = (b :> int) in
                if flag known a && flag known b then set w (Field.add values.(a) values.(b))
            | Circuit.Sub (a, b) ->
                let a = (a :> int) and b = (b :> int) in
                if flag known a && flag known b then set w (Field.sub values.(a) values.(b))
            | Circuit.Scale (k, a) ->
                let a = (a :> int) in
                if flag known a then set w (Field.mul k values.(a)))
        gates
    in
    let absorb_subshare src w v =
      let s = mul_slot.(w) in
      if s >= 0 && not (flag mul_seen ((s * n) + src)) then begin
        set_flag mul_seen ((s * n) + src);
        mul_acc.(s) <- Field.add mul_acc.(s) (Field.mul lam.(src) v);
        mul_count.(s) <- mul_count.(s) + 1;
        if mul_count.(s) = n then set w mul_acc.(s)
      end
    in
    let absorb_output src w v =
      let s = out_slot.(w) in
      if s >= 0 && not (flag out_seen ((s * n) + src)) then begin
        set_flag out_seen ((s * n) + src);
        out_vals.((s * n) + src) <- v
      end
    in
    let reconstruct_output w =
      let s = out_slot.(w) in
      let points = ref [] in
      for src = n - 1 downto 0 do
        if flag out_seen ((s * n) + src) then
          points := { Shamir.index = src; value = out_vals.((s * n) + src) } :: !points
      done;
      if List.length !points >= t + 1 then Shamir.reconstruct !points else Field.zero
    in
    (* Deal degree-t shares of [secret]: the k-th share goes to party k. *)
    let deal payload_for w secret =
      let shares, _ = Shamir.share rng ~threshold:t ~parties:n ~secret in
      Array.iteri (fun j s -> payload_for.(j) <- (w, s.Shamir.value) :: payload_for.(j)) shares
    in
    let send tag payload_for =
      List.concat
        (List.init n (fun j ->
             if payload_for.(j) = [] then []
             else [ Envelope.make ~src:id ~dst:j (encode_pairs tag payload_for.(j)) ]))
    in
    let step ~round ~inbox =
      (* 1. Absorb whatever arrived. *)
      if round = 1 then
        iter_pairs "bgw:in" ~nwires inbox (fun _ w v ->
            match gates.(w) with Circuit.Input _ -> set w v | _ -> ());
      if round >= 2 && round <= n_layers + 1 then
        iter_pairs mul_tag.(round - 2) ~nwires inbox absorb_subshare;
      if round = total_rounds then begin
        iter_pairs "bgw:out" ~nwires inbox absorb_output;
        result := decode (List.map reconstruct_output output_wires)
      end;
      (* 2. Send this round's traffic. *)
      if round = 0 then begin
        (* Deal shares of my inputs. *)
        let payload_for = Array.make n [] in
        let input_idx = ref 0 in
        Array.iteri
          (fun w g ->
            match g with
            | Circuit.Input (p, _) when p = id ->
                deal payload_for w my_inputs.(!input_idx);
                incr input_idx
            | _ -> ())
          gates;
        send "bgw:in" payload_for
      end
      else if round >= 1 && round <= n_layers then begin
        (* Reshare this layer's products whose operands are ready. *)
        let layer = round - 1 in
        advance ();
        let payload_for = Array.make n [] in
        List.iter
          (fun w ->
            match gates.(w) with
            | Circuit.Mul (a, b) when flag known (a :> int) && flag known (b :> int) ->
                deal payload_for w (Field.mul values.((a :> int)) values.((b :> int)))
            | _ -> ())
          layer_muls.(layer);
        send mul_tag.(layer) payload_for
      end
      else if round = total_rounds - 1 then begin
        (* Broadcast my output shares. *)
        advance ();
        let pairs =
          List.filter_map (fun w -> if flag known w then Some (w, values.(w)) else None) output_wires
        in
        if pairs = [] then [] else [ Envelope.broadcast ~src:id (encode_pairs "bgw:out" pairs) ]
      end
      else []
    in
    { Party.step; output = (fun () -> !result) }
  in
  {
    Protocol.name;
    rounds = (fun _ -> total_rounds);
    make_functionality = None;
    make_party;
  }
