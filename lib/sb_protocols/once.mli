(** Content-keyed memos over the two pure checks that every simulated
    party repeats on identical inputs.

    In one execution of a VSS-based protocol with all n parties in one
    process, each receiver re-checks the same (commitment, share) pairs
    at reveal time that their holders checked in the complaint round,
    and every Chor–Rabin party recomputes the same n knowledge-tag
    hashes. Both checks are pure functions of their content, so a
    result computed once is valid for every later query with equal
    content — in any party, any session, any execution.

    Keys are the full content and nothing else: every commitment
    element plus the share's [index], [value] and [blind], or the whole
    digest input. A lookup hits only on exact equality of all of it;
    the sender is never part of the key, so a corrupted revealer that
    sends different variants to different receivers has each variant
    checked. The tables are domain-local, so no two domains share one.

    {!Sb_crypto.Pedersen.verify_share} and {!Sb_crypto.Sha256.digest}
    stay unmemoised: they are the reference kernels. *)

val verify_share : Sb_crypto.Pedersen.commitment -> Sb_crypto.Pedersen.share -> bool
(** Equal to [Pedersen.verify_share c s] for every input. Commitments
    of more than 8 elements (threshold above 7) go to the kernel
    unmemoised. *)

val digest : string -> string
(** Equal to [Sha256.digest s] for every input. *)

(** {2 Slot functions}

    The table slot a key maps to; two keys with the same slot evict
    each other. Exposed so that tests can force collisions. *)

val verify_slot : Sb_crypto.Pedersen.commitment -> Sb_crypto.Pedersen.share -> int
val digest_slot : string -> int
