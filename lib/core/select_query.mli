(** Selection queries over a single encrypted relation — the original DAS
    query class ([13], [19], [24] in the paper's related work), brought to
    the mediated setting.

    The source DAS-encrypts its relation with one index table per
    attribute the WHERE clause references; the client (query translator)
    maps the plaintext condition to a server condition over index values
    ({!Das_translate}); the mediator — never seeing a plaintext — filters
    the encrypted rows with the relational engine and returns a guaranteed
    superset, which the client decrypts and post-filters. *)

exception Unsupported of string
(** Queries with joins, aggregates or GROUP BY (use the join /
    aggregation protocols for those). *)

val run :
  ?strategy:Das_partition.strategy ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** Default strategy: [Equi_depth 4] per indexed attribute.  A query
    without a WHERE clause transfers the whole (encrypted) relation.
    Ciphertexts failing authentication raise [Fault.Fault_detected] at
    the client ([client-translate] for the index tables,
    [client-postprocess] for the tuples). *)
