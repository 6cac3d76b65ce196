(** The commutative-encryption delivery phase (paper Listing 3, after
    Agrawal et al.).

    Each source commutatively encrypts the ideal-hash values of its active
    join domain and hybrid-encrypts the associated tuple sets Tup_i(a); the
    sets of messages are exchanged through the mediator so each side adds
    its own key on top of the other's.  Commutativity makes the doubly
    encrypted hashes of equal join values collide, letting the mediator
    assemble exactly the matching pairs — the client receives the exact
    global result, encrypted.

    The exchange (steps 1-7) is also the matching engine of the
    Section-8 side paths ({!Set_ops}, {!Aggregate_join}), which differ
    only in what each key carries and what the mediator forwards. *)

type entry = Join_key.t * (Secmed_crypto.Prng.t -> string) option
(** One key a of a source's active domain with the sealer of its
    payload: given the entry's own PRNG stream it returns the payload's
    ciphertext bytes (e.g. hybrid-encrypted Tup_i(a)).  [None] ships the
    bare hash, which is forwarded without an ID. *)

type exchanged = {
  pairs : (int * int) list;
      (** (left id, right id) of every key both sides hold, ids indexing
          the input entry lists, in the mediator's match order *)
  left_payloads : string array;
      (** each left entry's sealed payload, in input order (the mediator
          holds them all; [""] for a bare entry) *)
  right_payloads : string array;
}

val exchange :
  Outcome.Builder.builder ->
  Secmed_mediation.Link.t ->
  Env.t ->
  stream:string ->
  use_ids:bool ->
  left:int * entry list ->
  right:int * entry list ->
  exchanged
(** Listing 3's steps 1-7 between the sources [left]/[right] (ids with
    their entries) through the mediator: per source a fresh commutative
    key (drawn from [Env.prng_for env (stream ^ "-" ^ id)]), the hashed,
    encrypted and sealed entries on {!Batch.map_seeded} split streams,
    shuffled; the exchange of the message sets (payloads travel with the
    hashes, or with [use_ids] stay at the mediator behind 8-byte IDs);
    the second encryption; the match.  Every message goes through the
    link, and the fault plan attached to it drives the byzantine modes
    and the canary audit.  Records the mediator's and the sources'
    cardinality observations and the intersection size. *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.endpoint ->
  ?use_ids:bool ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** [use_ids] enables the paper's footnote-1 optimization: the mediator
    keeps the encrypted tuple sets and forwards only fixed-length IDs with
    the hash values, so sources never see each other's ciphertexts and the
    exchange shrinks.  Default [false] (the literal Listing 3).

    With a fault plan the run may raise
    [Secmed_mediation.Fault.Fault_detected]: channel faults are caught by
    the integrity envelope, byzantine ciphertexts at the client's
    authenticated decryption, and a stale re-encryption key by the canary
    audit the mediator runs when a plan is installed (a public canary
    value is double-encrypted along both paths and the results compared —
    commutativity makes honest paths agree). *)
