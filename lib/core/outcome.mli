(** Result of one end-to-end protocol run: the global result the client
    obtained, plus everything the evaluation harness needs — transcript,
    per-party derived observations (for Table 1), primitive counts (for
    Table 2) and per-phase timings. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type t = {
  scheme : string;
  result : Relation.t;             (** global result as obtained by the client *)
  exact : Relation.t;              (** trusted-mediator reference result *)
  transcript : Transcript.t;
  mediator_observed : (string * int) list;
      (** quantities the mediator could derive from what it handled *)
  client_observed : (string * int) list;
  sources_observed : (int * (string * int) list) list;
  client_received_tuples : int;
      (** source tuples the client could decrypt (DAS: the superset) *)
  counters : (Counters.primitive * int) list;
  attributed : ((string * string) * (Counters.primitive * int) list) list;
      (** primitive counts split by (party, phase) — the scoped-attribution
          view of [counters]; entries sum to it when every phase was run
          under a party label (see {!Counters.scoped}) *)
  timings : (string * float) list; (** phase -> seconds, in execution order *)
  degraded_from : string option;
      (** [Some s] when the resilience session served the query with this
          scheme only after scheme [s] exhausted its retry/deadline budget
          (see {!Protocol.run_session}); the trade is recorded as a
          transcript note too *)
}

val correct : t -> bool
(** Whether the protocol's result equals the reference result. *)

val mark_degraded : t -> from_scheme:string -> reason:string -> t
(** Annotate the outcome as served via a degradation fallback: sets
    {!field-degraded_from} and appends a transcript note naming the scheme
    that gave up and why. *)

val superset_factor : t -> float
(** client_received_tuples / source tuples in the exact join (>= 1 for a
    correct protocol with a non-empty result; 1 = minimal disclosure). *)

val observed : (string * int) list -> string -> int option
val timing_total : t -> float
val pp_summary : Format.formatter -> t -> unit

(** Mutable builder used by the protocol implementations. *)
module Builder : sig
  type builder

  val run :
    scheme:string ->
    ?fault:Fault.plan ->
    ?endpoint:Link.endpoint ->
    (builder -> Link.t -> Relation.t * Relation.t * int) ->
    t
  (** The frame every query driver runs in: a fresh builder and
      transcript (with the fault plan attached), a link over them, and
      fresh counters around the body, which returns the client's result,
      the reference result and the client's received-tuple count.  The
      outcome carries the body's primitive counts and their per-(party,
      phase) attribution. *)

  val create : scheme:string -> builder
  (** A bare builder, for driving one step (e.g.
      {!Commutative_join.exchange}) outside {!run}. *)

  val transcript : builder -> Transcript.t
  val mediator_sees : builder -> string -> int -> unit
  val client_sees : builder -> string -> int -> unit
  val source_sees : builder -> int -> string -> int -> unit
  val timed : builder -> ?party:string -> string -> (unit -> 'a) -> 'a
  (** Accumulates monotonic wall-clock time under the phase name (summing
      repeats).  Opens a [Phase] trace span for the duration; with [?party]
      the span carries a [party] attribute and the thunk runs inside
      {!Counters.scoped}, so crypto-primitive counts land on that
      (party, phase) pair. *)
end
