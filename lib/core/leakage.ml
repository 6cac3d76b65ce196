open Secmed_crypto

(* ------------------------------------------------------------------ *)
(* Table rendering helpers. *)

let render_table ~headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 512 in
  let line () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (Printf.sprintf " %-*s |" widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  line ();
  row headers;
  line ();
  List.iter row rows;
  line ();
  Buffer.contents buf

let describe_observations observations =
  match observations with
  | [] -> "-"
  | _ ->
    String.concat "; "
      (List.map (fun (key, value) -> Printf.sprintf "%s=%d" key value) observations)

(* ------------------------------------------------------------------ *)
(* Table 1: extra information disclosed to client and mediator. *)

let table1 outcomes =
  let rows =
    List.map
      (fun (o : Outcome.t) ->
        [
          o.Outcome.scheme;
          Printf.sprintf "%s (received %d of %d exact pairs)"
            (describe_observations o.Outcome.client_observed)
            o.Outcome.client_received_tuples
            (Secmed_relalg.Relation.cardinality o.Outcome.exact);
          describe_observations o.Outcome.mediator_observed;
        ])
      outcomes
  in
  render_table ~headers:[ "scheme"; "client"; "mediator" ] rows

(* ------------------------------------------------------------------ *)
(* Table 2: applied cryptographic primitives.  The paper's classes are
   mapped onto our counters. *)

let primitive_classes =
  [
    ("hashfunction", [ Counters.Hash ]);
    ("ideal hash (random oracle)", [ Counters.Ideal_hash ]);
    ("commutative encryption", [ Counters.Commutative_encrypt; Counters.Commutative_decrypt ]);
    ( "homomorphic encryption",
      [ Counters.Homomorphic_encrypt; Counters.Homomorphic_decrypt; Counters.Homomorphic_add;
        Counters.Homomorphic_scalar ] );
    ("random numbers", [ Counters.Random_number ]);
    ("hybrid encryption", [ Counters.Hybrid_encrypt; Counters.Hybrid_decrypt ]);
  ]

let table2 outcomes =
  let class_count (o : Outcome.t) primitives =
    List.fold_left
      (fun acc p -> acc + Option.value ~default:0 (List.assoc_opt p o.Outcome.counters))
      0 primitives
  in
  let rows =
    List.map
      (fun (o : Outcome.t) ->
        o.Outcome.scheme
        :: List.map
             (fun (_, primitives) ->
               let n = class_count o primitives in
               if n = 0 then "-" else string_of_int n)
             primitive_classes)
      outcomes
  in
  render_table ~headers:("scheme" :: List.map fst primitive_classes) rows

(* ------------------------------------------------------------------ *)
(* Machine-checked Table 1 claims. *)

type claim = {
  subject : string;
  description : string;
  expected : int;
  measured : int option;
}

let claim ~subject ~description ~expected ~measured = { subject; description; expected; measured }

(* What every run of the Listing-3 exchange discloses: the join and the
   Section-8 side paths built on it ({!Commutative_join.exchange}). *)
let exchange_claims (o : Outcome.t) (g : Ground_truth.t) =
  let mediator key = Outcome.observed o.Outcome.mediator_observed key in
  [
    claim ~subject:"mediator" ~description:"learns |domactive(R1.Ajoin)|"
      ~expected:g.Ground_truth.domactive_left
      ~measured:(mediator "cardinality-domactive-R1");
    claim ~subject:"mediator" ~description:"learns |domactive(R2.Ajoin)|"
      ~expected:g.Ground_truth.domactive_right
      ~measured:(mediator "cardinality-domactive-R2");
    claim ~subject:"mediator" ~description:"learns the active-domain intersection size"
      ~expected:g.Ground_truth.domactive_intersection
      ~measured:(mediator "intersection-size");
    claim ~subject:"source-1" ~description:"learns |domactive| of the opposite source"
      ~expected:g.Ground_truth.domactive_right
      ~measured:
        (Option.bind
           (List.assoc_opt 1 o.Outcome.sources_observed)
           (fun obs -> List.assoc_opt "cardinality-domactive-opposite" obs));
  ]

(* What every DAS run discloses (join or selection): the mediator counts
   each tuple-wise encrypted relation ([relations]: description, true
   size, observation key) and R_C, which the client receives — a
   superset of the [exact]-tuple result. *)
let das_claims (o : Outcome.t) ~relations ~exact ~result =
  let mediator key = Outcome.observed o.Outcome.mediator_observed key in
  let at_least n = function Some m when m >= n -> Some 1 | Some _ | None -> None in
  List.map
    (fun (description, expected, key) ->
      claim ~subject:"mediator" ~description ~expected ~measured:(mediator key))
    relations
  @ [
      claim ~subject:"mediator"
        ~description:(Printf.sprintf "learns |RC|, an upper bound of the %s size" result)
        ~expected:1
        ~measured:(at_least exact (mediator "cardinality-RC"));
      claim ~subject:"client" ~description:("receives a superset of the " ^ result)
        ~expected:1
        ~measured:(at_least exact (Some o.Outcome.client_received_tuples));
    ]

let verify (o : Outcome.t) ~(ground_truth : Ground_truth.t) =
  let g = ground_truth in
  let mediator key = Outcome.observed o.Outcome.mediator_observed key in
  let scheme = o.Outcome.scheme in
  let has_prefix prefix = String.starts_with ~prefix scheme in
  if String.equal scheme "das-select" then
    das_claims o
      ~relations:
        [ ("derives |R| from tuple-wise encryption", g.Ground_truth.card_left, "cardinality-RS") ]
      ~exact:(Secmed_relalg.Relation.cardinality o.Outcome.exact)
      ~result:"result"
  else if has_prefix "das" then
    das_claims o
      ~relations:
        [
          ("derives |R1| from tuple-wise encryption", g.Ground_truth.card_left, "cardinality-R1S");
          ("derives |R2|", g.Ground_truth.card_right, "cardinality-R2S");
        ]
      ~exact:g.Ground_truth.exact_join_pairs ~result:"global result"
  else if has_prefix "commutative" then
    exchange_claims o g
    @ [
        claim ~subject:"client" ~description:"receives only the exact global result"
          ~expected:g.Ground_truth.exact_join_pairs
          ~measured:(Some o.Outcome.client_received_tuples);
      ]
  else if
    List.exists (String.equal scheme) [ "intersection"; "semi-join"; "difference" ]
    || has_prefix "aggregate"
  then exchange_claims o g
  else if has_prefix "pm" then
    [
      claim ~subject:"mediator" ~description:"learns |domactive(R1.Ajoin)| from the degree of P1"
        ~expected:g.Ground_truth.domactive_left
        ~measured:(mediator "cardinality-domactive-R1");
      claim ~subject:"mediator" ~description:"learns |domactive(R2.Ajoin)| from the degree of P2"
        ~expected:g.Ground_truth.domactive_right
        ~measured:(mediator "cardinality-domactive-R2");
      claim ~subject:"client" ~description:"can decipher only the exact global result"
        ~expected:g.Ground_truth.exact_join_pairs
        ~measured:(Some o.Outcome.client_received_tuples);
      claim ~subject:"client" ~description:"receives one ciphertext per active-domain value"
        ~expected:(g.Ground_truth.domactive_left + g.Ground_truth.domactive_right)
        ~measured:(Outcome.observed o.Outcome.client_observed "ciphertexts-received");
      claim ~subject:"source-2" ~description:"learns the degree of the opposite polynomial"
        ~expected:g.Ground_truth.domactive_left
        ~measured:
          (Option.bind
             (List.assoc_opt 2 o.Outcome.sources_observed)
             (fun obs -> List.assoc_opt "degree-opposite-polynomial" obs));
    ]
  else []

let claim_holds c = c.measured = Some c.expected

let all_hold claims = List.for_all claim_holds claims

let pp_claims fmt claims =
  List.iter
    (fun c ->
      Format.fprintf fmt "%-9s %-55s expected %d, measured %s -> %s@." c.subject
        c.description c.expected
        (match c.measured with Some v -> string_of_int v | None -> "n/a")
        (if claim_holds c then "ok" else "VIOLATED"))
    claims
