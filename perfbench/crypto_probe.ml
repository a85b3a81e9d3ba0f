(* sb_crypto kernel probes at the sizes the workloads use: n = 5,
   t = 2 Pedersen sharing and k = 16 hash commitments (claims-n5), and
   signatures under an n = 512 key registry (single-large-n). Each
   probe times a fixed number of calls through the public functions
   and reports the median over five repetitions, in ns per call. *)

open Sb_crypto

let time_ns ~iters f =
  let once () =
    let t0 = Meas.now_ns () in
    for i = 1 to iters do
      ignore (Sys.opaque_identity (f i))
    done;
    float_of_int (Meas.now_ns () - t0) /. float_of_int iters
  in
  ignore (once ());
  Meas.percentile 0.5 (Array.init 5 (fun _ -> once ()))

let run () =
  let rng = Sb_util.Rng.create 2718 in
  let exps = Array.init 1024 (fun _ -> Field.random rng) in
  let e i = exps.(i land 1023) in
  let base = Modgroup.pow_g (e 7) in
  let commit = Commit.create ~k:16 Commit.Hash in
  let c, opening = Commit.commit commit rng "1" in
  let sigs = Sig.create rng ~n:512 in
  let signature = Sig.sign sigs ~signer:511 "bc:0/1" in
  let dealt = Pedersen.deal rng ~threshold:2 ~parties:5 ~secret:Field.one in
  let shares = dealt.Pedersen.shares in
  let subset = Array.to_list (Array.sub shares 0 3) in
  [
    ("crypto.pow_ns", time_ns ~iters:50_000 (fun i -> Modgroup.pow base (e i)));
    ("crypto.pow_gh_ns", time_ns ~iters:200_000 (fun i -> Modgroup.pow_gh (e i) (e (i + 1))));
    ("crypto.commit_ns", time_ns ~iters:20_000 (fun _ -> Commit.commit commit rng "1"));
    ("crypto.commit_verify_ns", time_ns ~iters:50_000 (fun _ -> Commit.verify commit c opening));
    ("crypto.sig_sign_ns", time_ns ~iters:50_000 (fun i -> Sig.sign sigs ~signer:(i land 511) "bc:0/1"));
    ( "crypto.sig_verify_ns",
      time_ns ~iters:50_000 (fun _ -> Sig.verify sigs ~signer:511 "bc:0/1" signature) );
    ( "crypto.verify_share_n5_ns",
      time_ns ~iters:50_000 (fun i -> Pedersen.verify_share dealt.Pedersen.commitment shares.(i mod 5)) );
    ("crypto.reconstruct_n5_ns", time_ns ~iters:100_000 (fun _ -> Pedersen.reconstruct subset));
  ]
