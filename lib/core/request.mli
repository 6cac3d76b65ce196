(** The basic MMM request phase (paper Listing 1), common to all delivery
    protocols:

    1. the client sends the global query q and credential set CR to the
       mediator;
    2. the mediator localizes S1/S2, decomposes q into partial queries and
       selects credential subsets CR1/CR2;
    3. the mediator sends ⟨q_i, CR_i, A_i⟩ to S_i;
    4. S_i checks the credentials and, if authorized, evaluates q_i
       (applying any row-level policy filter) yielding R_i.

    The partial results R_i conceptually remain at the sources; the record
    returned here hands them to the delivery-phase implementations as the
    sources' inputs. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

exception Access_denied of int
(** Source id that refused the partial query. *)

exception Bad_credential of int
(** Source id that rejected a credential signature. *)

type t = {
  decomposition : Catalog.decomposition;
  client_pk : Elgamal.public_key;  (** taken from the forwarded credentials *)
  left_result : Relation.t;        (** R_1, qualified with its relation name *)
  right_result : Relation.t;       (** R_2 *)
  credentials_left : Credential.t list;   (** CR_1 *)
  credentials_right : Credential.t list;  (** CR_2 *)
}

val run : Outcome.Builder.builder -> Link.t -> Env.t -> Env.client -> query:string -> t
(** Parses and decomposes [query], performs steps 1–4 as the [request]
    phase at the mediator, delivering every message over the link
    (transcript + fault plan + optional transport), and returns the
    sources' granted partial results.  Raises {!Access_denied},
    {!Bad_credential}, [Parser.Error], [Lexer.Error],
    [Catalog.Unsupported], or {!Fault.Fault_detected} when an installed
    fault plan hits the request-phase messages. *)

val send_query : Link.t -> Env.client -> query:string -> unit
(** Step 1: the [global-query] message, sized with the client's whole
    credential set. *)

val send_partial :
  Link.t ->
  Env.t ->
  Env.client ->
  Catalog.entry ->
  partial_query:string ->
  join_attrs:string list ->
  Credential.t list
(** Steps 2–3 for one source: select CR_i — the client's credentials
    carrying a property key the source advertises, all of them when it
    advertises none — and send the [partial-query] message
    ⟨q_i, CR_i, A_i⟩.  Returns CR_i. *)

val authorize : Env.t -> Catalog.entry -> Credential.t list -> Relation.t
(** Step 4 at the entry's source: verify every credential, then evaluate
    the source relation under the source's policy for the credentials'
    properties.  Returns the granted rows renamed to the global relation
    name; raises {!Bad_credential} or {!Access_denied}. *)

val exact_result : t -> Relation.t
(** The reference global result: natural join of the partial results with
    the residual WHERE / projection / DISTINCT applied — what an honest
    trusted mediator would return.  Protocol outputs are tested against
    this. *)

val finalize : t -> Relation.t -> Relation.t
(** Applies the residual WHERE, projection and DISTINCT of the query to a
    joined relation (the client's last local step). *)

val client_join : t -> (Tuple.t list * Tuple.t list) list -> Relation.t
(** The client's final join: every tuple of each matched (left set,
    right set) pair combined with every tuple of the other — the left
    tuple followed by the right tuple's non-join attributes — in order,
    then {!finalize}d. *)

val decrypt :
  phase:string -> party:Transcript.party -> Elgamal.private_key -> string ->
  Hybrid.ciphertext -> string
(** Authenticated hybrid decryption by [party]; a ciphertext failing
    authentication raises {!Fault.Fault_detected} at [phase], naming
    [label]. *)

val join_attrs : t -> string list
(** Bare names of the join attributes (singleton in the paper's setting,
    longer for the Section 8 composite-key extension). *)

val join_attr_values : t -> [ `Left | `Right ] -> Join_key.t list
(** dom_active(R_i.A_join) — sorted distinct join keys of a partial
    result. *)

val groups : t -> [ `Left | `Right ] -> (Join_key.t * Tuple.t list) list
(** All (a, Tup_i(a)) pairs at once, in key order. *)

val credential_size : Credential.t list -> int
(** Combined wire size, for transcript accounting. *)
