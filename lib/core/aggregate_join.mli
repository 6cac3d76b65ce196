(** Secure mediation of aggregation queries over a join
    (SELECT ... COUNT/SUM/MIN/MAX/AVG ... FROM R1 NATURAL JOIN R2
    [GROUP BY A_join]).

    Related work the paper surveys ([14], [9], [18]) computes aggregates
    over encrypted data; this module brings that query class to the
    mediated setting.  The key observation: every aggregate over the join
    decomposes into per-join-key statistics each source can compute on its
    own plaintext — count c_i(a), sum/min/max of its own columns over
    Tup_i(a) — so the sources only ship *per-key aggregate bundles*, never
    tuples.  Matching is the Listing-3 exchange
    ({!Commutative_join.exchange}, payloads kept behind IDs).

    Two delivery strategies:

    - {b Bundles} (default): each source hybrid-encrypts one bundle per
      key; the mediator forwards the matched pairs; the client combines
      them (e.g. SUM(R2.y) = Σ_a c_1(a)·s_2(a)).  The client learns per-key
      aggregates — strictly less than the full join it is entitled to.
    - {b Homomorphic}: for scalar (non-grouped) COUNT/SUM over right-side
      columns with duplicate-free left join keys, the right source sends
      Paillier ciphertexts and the *mediator* combines the matched ones
      homomorphically, so the client receives a single ciphertext per
      aggregate and learns nothing but the totals. *)

type strategy =
  | Bundles
  | Homomorphic

exception Unsupported of string
(** Query shapes outside this protocol: a residual WHERE, GROUP BY on
    anything but the join attributes, aggregated columns not clearly
    belonging to one relation, or — for {!Homomorphic} — grouped queries,
    non-COUNT/SUM aggregates, left-side columns, or a left relation whose
    join keys are not duplicate-free. *)

val run :
  ?strategy:strategy ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** The outcome's [result] is the aggregate relation (group keys followed
    by one column per aggregate, or a single row for scalar queries);
    [exact] is the trusted-mediator reference.  A bundle failing
    authentication raises [Fault.Fault_detected] at the client. *)
