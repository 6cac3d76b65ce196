(** Regeneration of the paper's Section 6 analysis from actual protocol
    executions.

    Table 1 ("extra information disclosed to client and mediator") and
    Table 2 ("applied cryptographic primitives") are rebuilt from outcome
    observations and primitive counters rather than asserted, and
    {!verify} machine-checks that each run's disclosures match the paper's
    claims. *)

val table1 : Outcome.t list -> string
(** Rendered Table 1: per scheme, the extra information the client and the
    mediator could derive, with the measured values. *)

val table2 : Outcome.t list -> string
(** Rendered Table 2: per scheme, which cryptographic primitive classes
    were actually invoked (with counts). *)

type claim = {
  subject : string;   (** "mediator", "client", "source-1", ... *)
  description : string;
  expected : int;
  measured : int option;
}

val verify : Outcome.t -> ground_truth:Ground_truth.t -> claim list
(** The paper's Table 1 claims instantiated for this run: e.g. in the DAS
    run the mediator must have been able to derive |R1|, |R2| and |RC|; in
    the commutative run |domactive| and the intersection size.  A
    selection ({!Select_query}, no join) is checked against
    [ground_truth.card_left] as |R| and its own reference result.  A
    claim with [measured = Some expected] holds. *)

val all_hold : claim list -> bool
val pp_claims : Format.formatter -> claim list -> unit
