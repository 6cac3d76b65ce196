open Secmed_relalg
open Secmed_crypto
open Secmed_mediation

type server_eval =
  | Pair_index
  | Nested_loop

type encrypted_relation = {
  rows : (Hybrid.ciphertext * int array) list;
  wire_size : int;
}

let index_tables strategy ~relation attrs rel =
  List.map
    (fun attr ->
      let column = Relation.column rel attr in
      Das_partition.build (Das_partition.adapt strategy column) ~relation ~attr column)
    attrs

let encrypt_relation ?domains prng pk tables ~join_attrs relation =
  let positions = Join_key.positions (Relation.schema relation) join_attrs in
  let tables = Array.of_list tables in
  if Array.length tables <> Array.length positions then
    invalid_arg "Das.encrypt_relation: one index table per join attribute required";
  (* Per-tuple hybrid encryption is the dominant source-side cost and
     embarrassingly parallel: each tuple draws from its own PRNG stream
     split off the source seed, so the wire bytes are bit-identical no
     matter how many domains the Batch executor uses. *)
  let rows =
    Batch.map_seeded_list ?domains ~prng ~label:"das-row"
      (fun _ prng tuple ->
        let etuple = Hybrid.encrypt prng pk (Tuple.encode tuple) in
        let indexes =
          Array.mapi
            (fun k position -> Das_partition.index_of tables.(k) (Tuple.get tuple position))
            positions
        in
        (etuple, indexes))
      (Relation.tuples relation)
  in
  let arity = Array.length positions in
  let wire_size =
    List.fold_left (fun acc (ct, _) -> acc + Hybrid.size ct + (8 * arity)) 0 rows
  in
  { rows; wire_size }

let server_query_pairs ~left_tables ~right_tables =
  List.map2 Das_partition.overlapping_pairs left_tables right_tables

(* Cond_S: conjunction over join attributes of the disjunction over the
   attribute's overlapping partition pairs. *)
let condition_of_pairs per_attr_pairs =
  Predicate.conj
    (List.mapi
       (fun k pairs ->
         Predicate.disj
           (List.map
              (fun (i1, i2) ->
                Predicate.And
                  ( Predicate.eq_const (Printf.sprintf "R1S.idx_%d" k) (Value.Int i1),
                    Predicate.eq_const (Printf.sprintf "R2S.idx_%d" k) (Value.Int i2) ))
              pairs))
       per_attr_pairs)

let server_condition ~left_tables ~right_tables =
  condition_of_pairs (server_query_pairs ~left_tables ~right_tables)

(* View of an encrypted relation as an ordinary relation over
   (etuple : string, idx_0 .. idx_{k-1} : int); the nested-loop evaluation
   runs the literal sigma-over-product on the relational engine. *)
let as_relation name arity er =
  let schema =
    Schema.make
      (Schema.attr ~rel:name "etuple" Value.Tstring
      :: List.init arity (fun k -> Schema.attr ~rel:name (Printf.sprintf "idx_%d" k) Value.Tint))
  in
  Relation.make schema
    (List.map
       (fun (ct, indexes) ->
         Tuple.of_list
           (Value.Str (Hybrid.to_wire ct)
           :: Array.to_list (Array.map (fun i -> Value.Int i) indexes)))
       er.rows)

let key_arity er = match er.rows with [] -> 0 | (_, indexes) :: _ -> Array.length indexes

let vector_key indexes =
  String.concat ":" (Array.to_list (Array.map string_of_int indexes))

let server_join eval per_attr_pairs left right =
  match eval with
  | Pair_index ->
    (* Group right rows by their full index vector; for each left row,
       enumerate the (usually few) right vectors compatible with it under
       Cond_S and look them up. *)
    let right_groups = Hashtbl.create 64 in
    List.iter
      (fun (ct, indexes) ->
        let key = vector_key indexes in
        Hashtbl.replace right_groups key
          (ct :: Option.value ~default:[] (Hashtbl.find_opt right_groups key)))
      right.rows;
    (* Per attribute: idx1 -> compatible idx2 list. *)
    let compatible =
      List.map
        (fun pairs ->
          let table = Hashtbl.create 32 in
          List.iter
            (fun (i1, i2) ->
              Hashtbl.replace table i1 (i2 :: Option.value ~default:[] (Hashtbl.find_opt table i1)))
            pairs;
          table)
        per_attr_pairs
    in
    let compatible = Array.of_list compatible in
    (* Cartesian product of the per-attribute compatible index lists: the
       right-side index vectors this left row can pair with under Cond_S. *)
    let candidates_for indexes =
      let arity = Array.length indexes in
      let rec go k acc =
        if k = arity then [ List.rev acc ]
        else begin
          match Hashtbl.find_opt compatible.(k) indexes.(k) with
          | None -> []
          | Some i2s -> List.concat_map (fun i2 -> go (k + 1) (i2 :: acc)) i2s
        end
      in
      go 0 []
    in
    List.concat_map
      (fun (ct1, indexes) ->
        List.concat_map
          (fun vector ->
            let key = String.concat ":" (List.map string_of_int vector) in
            match Hashtbl.find_opt right_groups key with
            | None -> []
            | Some cts -> List.map (fun ct2 -> (ct1, ct2)) cts)
          (candidates_for indexes))
      left.rows
  | Nested_loop ->
    let arity =
      Stdlib.max (List.length per_attr_pairs) (Stdlib.max (key_arity left) (key_arity right))
    in
    let r1s = as_relation "R1S" arity left and r2s = as_relation "R2S" arity right in
    let rc = Relation.select (condition_of_pairs per_attr_pairs) (Relation.product r1s r2s) in
    List.map
      (fun tuple ->
        match (Tuple.get tuple 0, Tuple.get tuple (arity + 1)) with
        | Value.Str w1, Value.Str w2 -> (Hybrid.of_wire w1, Hybrid.of_wire w2)
        | _ -> assert false)
      (Relation.tuples rc)

(* Wire bundle of one source's encrypted index tables. *)
let tables_to_wire tables =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Das_partition.to_wire t)) tables;
  Wire.contents w

let tables_of_wire blob =
  let r = Wire.reader blob in
  let tables = Wire.read_list r (fun () -> Das_partition.of_wire (Wire.read_string r)) in
  Wire.expect_end r;
  tables

type setting =
  | Client_setting    (* Listing 2: the translator at the client *)
  | Source_setting    (* translator at S1; S2's tables travel encrypted to S1 *)
  | Mediator_setting  (* translator at the mediator; tables in plaintext there *)

let setting_name = function
  | Client_setting -> "client-setting"
  | Source_setting -> "source-setting"
  | Mediator_setting -> "mediator-setting"

(* Deterministic per-source ElGamal keys (the source setting needs sources
   to address each other confidentially). *)
let source_keypair env sid =
  Elgamal.keygen (Env.prng_for env (Printf.sprintf "source-key-%d" sid)) env.Env.group

let partition_count_sum tables =
  List.fold_left (fun acc t -> acc + Das_partition.partition_count t) 0 tables

(* Byzantine source behaviours (syntactically detectable — see DESIGN.md
   §8): wrong partition ids are pushed outside the valid index range so
   the mediator's bounds check catches them; malformed ciphertexts keep
   their framing but fail authentication at the client. *)
let apply_byzantine mode er =
  match mode with
  | Some Fault.Wrong_partition_ids ->
    { er with rows = List.map (fun (ct, idx) -> (ct, Array.map (fun i -> -1 - i) idx)) er.rows }
  | Some Fault.Malformed_ciphertexts ->
    {
      er with
      rows =
        List.map
          (fun (ct, idx) -> (Hybrid.of_wire (Fault.flip_tail (Hybrid.to_wire ct)), idx))
          er.rows;
    }
  | _ -> er

(* The mediator rejects index vectors outside the table range before
   evaluating q_S — an honest source never produces them. *)
let validate_indexes which er =
  List.iter
    (fun (_, idx) ->
      Array.iter
        (fun i ->
          if i < 0 then
            Fault.fail ~phase:"mediator-server-query" ~party:Mediator
              (Printf.sprintf "R%dS row carries out-of-range partition index %d" which i))
        idx)
    er.rows

(* Canonical wire form of an encrypted relation: each row's hybrid
   ciphertext followed by its 8-byte big-endian partition indexes —
   exactly [er.wire_size] bytes, so socket-level byte counts match the
   transcript entry in distributed runs.  One string per row, so the
   upload can travel row-wise ([Link.deliver_rows]) without ever
   concatenating the relation. *)
let er_rows er =
  List.map
    (fun (ct, idx) ->
      let w = Wire.writer () in
      Wire.write_raw w (Hybrid.to_wire ct);
      Array.iter (fun i -> Wire.write_int w i) idx;
      Wire.contents w)
    er.rows

(* Canonical q_S encoding: 16 bytes per overlapping pair (two 8-byte
   big-endian indexes), matching the 16*|pairs| transcript size. *)
let pairs_payload pairs =
  let w = Wire.writer () in
  List.iter
    (fun attr_pairs ->
      List.iter
        (fun (i1, i2) ->
          Wire.write_int w i1;
          Wire.write_int w i2)
        attr_pairs)
    pairs;
  Wire.contents w

let run ?fault ?endpoint ?(strategy = Das_partition.Equi_depth 4) ?(server_eval = Pair_index)
    ?(setting = Client_setting) env client ~query =
  let scheme =
    match setting with
    | Client_setting -> "das"
    | Source_setting | Mediator_setting -> "das/" ^ setting_name setting
  in
  Outcome.Builder.run ~scheme ?fault ?endpoint (fun b link ->
      let request = Request.run b link env client ~query in
      let exact = Request.exact_result request in
      let join_attrs = Request.join_attrs request in
      let pk = request.Request.client_pk in

      (* Listing 2, steps 1-3 at each source: partition every join
         attribute and encrypt the partial result DAS-style.  Where the
         index tables go — and under which key — depends on the
         translator placement. *)
      let source_side (entry : Catalog.entry) relation =
        let prng = Env.prng_for env (Printf.sprintf "das-source-%d" entry.Catalog.source) in
        Outcome.Builder.timed b
          ~party:(Transcript.party_name (Source entry.Catalog.source)) "source-encrypt"
          (fun () ->
            let tables =
              index_tables strategy ~relation:entry.Catalog.relation join_attrs relation
            in
            let encrypted = encrypt_relation prng pk tables ~join_attrs relation in
            let encrypted =
              apply_byzantine (Fault.byzantine_mode fault entry.Catalog.source) encrypted
            in
            (prng, tables, encrypted))
      in
      (* One upload per source: the encrypted rows plus this setting's
         form of the index tables (so sources still "send data once"). *)
      let record_upload sid which ~rows_size ?(tables_payload = 0)
          ?(tables_wire = fun () -> "") ~rows () =
        Link.deliver_rows link ~phase:"source-upload" ~sender:(Source sid)
          ~receiver:Mediator
          ~label:(Printf.sprintf "R%dS+ITables" which)
          ~size:(rows_size + tables_payload)
          (fun () ->
            match tables_wire () with
            | "" -> er_rows rows
            | tables -> er_rows rows @ [ tables ])
      in
      let s1 = request.Request.decomposition.Catalog.left.Catalog.source in
      let s2 = request.Request.decomposition.Catalog.right.Catalog.source in
      let prng1, tables1, r1s =
        source_side request.Request.decomposition.Catalog.left request.Request.left_result
      in
      let prng2, tables2, r2s =
        source_side request.Request.decomposition.Catalog.right
          request.Request.right_result
      in
      (* The tuple-wise encryption reveals the partial result sizes to
         the mediator. *)
      Outcome.Builder.mediator_sees b "cardinality-R1S" (List.length r1s.rows);
      Outcome.Builder.mediator_sees b "cardinality-R2S" (List.length r2s.rows);

      (* Steps 4/5: route the index tables to the translator, which
         derives the server query q_S. *)
      let per_attr_pairs =
        match setting with
        | Client_setting ->
          (* Tables encrypted for the client; client translates. *)
          let enc_it1 =
            Outcome.Builder.timed b ~party:(Transcript.party_name (Source s1))
              "source-encrypt" (fun () -> Hybrid.encrypt prng1 pk (tables_to_wire tables1))
          in
          let enc_it2 =
            Outcome.Builder.timed b ~party:(Transcript.party_name (Source s2))
              "source-encrypt" (fun () -> Hybrid.encrypt prng2 pk (tables_to_wire tables2))
          in
          record_upload s1 1 ~rows_size:r1s.wire_size ~tables_payload:(Hybrid.size enc_it1)
            ~tables_wire:(fun () -> Hybrid.to_wire enc_it1) ~rows:r1s ();
          record_upload s2 2 ~rows_size:r2s.wire_size ~tables_payload:(Hybrid.size enc_it2)
            ~tables_wire:(fun () -> Hybrid.to_wire enc_it2) ~rows:r2s ();
          Link.deliver link ~phase:"client-translate" ~sender:Mediator ~receiver:Client
            ~label:"enc(ITables_R1)" ~size:(Hybrid.size enc_it1)
            (fun () -> Hybrid.to_wire enc_it1);
          Link.deliver link ~phase:"client-translate" ~sender:Mediator ~receiver:Client
            ~label:"enc(ITables_R2)" ~size:(Hybrid.size enc_it2)
            (fun () -> Hybrid.to_wire enc_it2);
          let pairs =
            Outcome.Builder.timed b ~party:"Client" "client-translate" (fun () ->
                let it1 =
                  tables_of_wire
                    (Request.decrypt ~phase:"client-translate" ~party:Client client.Env.key
                       "ITables_R1" enc_it1)
                in
                let it2 =
                  tables_of_wire
                    (Request.decrypt ~phase:"client-translate" ~party:Client client.Env.key
                       "ITables_R2" enc_it2)
                in
                Outcome.Builder.client_sees b "partitions-R1" (partition_count_sum it1);
                Outcome.Builder.client_sees b "partitions-R2" (partition_count_sum it2);
                server_query_pairs ~left_tables:it1 ~right_tables:it2)
          in
          let total = List.fold_left (fun acc p -> acc + List.length p) 0 pairs in
          Link.deliver link ~phase:"mediator-server-query" ~sender:Client
            ~receiver:Mediator ~label:"server-query-qS" ~size:(16 * total)
            (fun () -> pairs_payload pairs);
          pairs
        | Source_setting ->
          (* S2's tables travel, encrypted under S1's source key, to S1,
             which translates — learning S2's partition structure. *)
          let s1_keys = source_keypair env s1 in
          let enc_it2 =
            Outcome.Builder.timed b ~party:(Transcript.party_name (Source s2))
              "source-encrypt" (fun () ->
                Hybrid.encrypt prng2 (Elgamal.public s1_keys) (tables_to_wire tables2))
          in
          record_upload s1 1 ~rows_size:r1s.wire_size ~rows:r1s ();
          record_upload s2 2 ~rows_size:r2s.wire_size ~tables_payload:(Hybrid.size enc_it2)
            ~tables_wire:(fun () -> Hybrid.to_wire enc_it2) ~rows:r2s ();
          Link.deliver link ~phase:"source-translate" ~sender:Mediator
            ~receiver:(Source s1) ~label:"enc_S1(ITables_R2)" ~size:(Hybrid.size enc_it2)
            (fun () -> Hybrid.to_wire enc_it2);
          let pairs =
            Outcome.Builder.timed b ~party:(Transcript.party_name (Source s1)) "source-translate" (fun () ->
                let it2 =
                  tables_of_wire
                    (Request.decrypt ~phase:"source-translate" ~party:(Source s1) s1_keys
                       "ITables_R2" enc_it2)
                in
                Outcome.Builder.source_sees b s1 "partitions-R2" (partition_count_sum it2);
                server_query_pairs ~left_tables:tables1 ~right_tables:it2)
          in
          let total = List.fold_left (fun acc p -> acc + List.length p) 0 pairs in
          Link.deliver link ~phase:"mediator-server-query" ~sender:(Source s1)
            ~receiver:Mediator ~label:"server-query-qS" ~size:(16 * total)
            (fun () -> pairs_payload pairs);
          pairs
        | Mediator_setting ->
          (* Tables in plaintext at the mediator — cheapest, but the
             mediator can now approximate every tuple's join value
             (the paper's Section 6 warning). *)
          record_upload s1 1 ~rows_size:r1s.wire_size
            ~tables_payload:(String.length (tables_to_wire tables1))
            ~tables_wire:(fun () -> tables_to_wire tables1) ~rows:r1s ();
          record_upload s2 2 ~rows_size:r2s.wire_size
            ~tables_payload:(String.length (tables_to_wire tables2))
            ~tables_wire:(fun () -> tables_to_wire tables2) ~rows:r2s ();
          Outcome.Builder.mediator_sees b "partitions-R1" (partition_count_sum tables1);
          Outcome.Builder.mediator_sees b "partitions-R2" (partition_count_sum tables2);
          (* Measured value approximation: entropy of the index values
             it holds, in centibits per tuple. *)
          let centibits tables relation =
            List.fold_left
              (fun acc table ->
                acc
                + int_of_float
                    (100.0
                    *. Das_partition.disclosure_bits table
                         (Relation.column relation (Das_partition.attr table))))
              0 tables
          in
          Outcome.Builder.mediator_sees b "approx-value-centibits-R1"
            (centibits tables1 request.Request.left_result);
          Outcome.Builder.mediator_sees b "approx-value-centibits-R2"
            (centibits tables2 request.Request.right_result);
          Outcome.Builder.timed b ~party:"Mediator" "mediator-translate" (fun () ->
              server_query_pairs ~left_tables:tables1 ~right_tables:tables2)
      in
      let total_pairs = List.fold_left (fun acc p -> acc + List.length p) 0 per_attr_pairs in

      (* Step 6: the mediator evaluates q_S over the encrypted relations
         and returns R_C. *)
      let rc =
        Outcome.Builder.timed b ~party:"Mediator" "mediator-server-query" (fun () ->
            validate_indexes 1 r1s;
            validate_indexes 2 r2s;
            server_join server_eval per_attr_pairs r1s r2s)
      in
      Outcome.Builder.mediator_sees b "condition-size-qS" total_pairs;
      Outcome.Builder.mediator_sees b "cardinality-RC" (List.length rc);
      let rc_size =
        List.fold_left (fun acc (x, y) -> acc + Hybrid.size x + Hybrid.size y) 0 rc
      in
      Link.deliver_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
        ~label:"RC" ~size:rc_size
        (fun () -> List.map (fun (x, y) -> Hybrid.to_wire x ^ Hybrid.to_wire y) rc);
      Outcome.Builder.client_sees b "candidate-pairs-received" (List.length rc);

      (* Step 7: the client decrypts R_C and applies q_C. *)
      let result =
        Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
            let pos_left =
              Join_key.positions (Relation.schema request.Request.left_result) join_attrs
            in
            let pos_right =
              Join_key.positions (Relation.schema request.Request.right_result) join_attrs
            in
            let decrypt label ct =
              Tuple.decode
                (Request.decrypt ~phase:"client-postprocess" ~party:Client client.Env.key
                   label ct)
            in
            Request.client_join request
              (List.filter_map
                 (fun (ct1, ct2) ->
                   let t1 = decrypt "etuple1" ct1 in
                   let t2 = decrypt "etuple2" ct2 in
                   (* q_C : R1.A_join = R2.A_join on the plaintexts. *)
                   if
                     Join_key.equal
                       (Join_key.of_tuple pos_left t1)
                       (Join_key.of_tuple pos_right t2)
                   then Some ([ t1 ], [ t2 ])
                   else None)
                 rc))
      in
      (result, exact, List.length rc))
