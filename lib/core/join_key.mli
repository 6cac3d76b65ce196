(** Composite join keys.

    The paper assumes a single join attribute (A1 = A2 = {A_join}) and
    leaves several attributes as future work (Section 8).  This module is
    the generalization: a join key is the vector of a tuple's values at
    the join attributes, compared and hashed componentwise, with a
    self-delimiting byte encoding shared by the commutative hashing and
    the PM root derivation. *)

open Secmed_relalg

type t

val of_values : Value.t list -> t
(** Raises [Invalid_argument] on the empty list. *)

val values : t -> Value.t list
val arity : t -> int
val nth : t -> int -> Value.t

val compare : t -> t -> int
val equal : t -> t -> bool

val encode : t -> string
(** Injective byte encoding (arity header + encoded components). *)

val to_string : t -> string

val positions : Schema.t -> string list -> int array
(** Column positions of the named join attributes.  Raises [Not_found] /
    [Invalid_argument] like [Schema.find]. *)

val of_tuple : int array -> Tuple.t -> t
(** Key of a tuple at the given positions. *)

val distinct_keys : Relation.t -> string list -> t list
(** Sorted distinct join keys of a relation: the composite
    dom_active(A_join). *)

val group_by : Relation.t -> string list -> (t * Tuple.t list) list
(** Tup(a) for every distinct key a, in key order. *)

val encode_tuple_set : Tuple.t list -> string
(** Serialization of a tuple set Tup_i(a), the plaintext a source
    encrypts as the payload of key a. *)

val decode_tuple_set : string -> Tuple.t list
(** Inverse of {!encode_tuple_set}; raises [Wire.Malformed] or
    [Invalid_argument] on malformed input. *)
