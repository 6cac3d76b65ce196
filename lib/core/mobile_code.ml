open Secmed_crypto
open Secmed_relalg
open Secmed_sql
open Secmed_mediation

let encode_relation relation =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Tuple.encode t)) (Relation.tuples relation);
  Wire.contents w

let decode_tuples blob =
  let r = Wire.reader blob in
  let tuples = Wire.read_list r (fun () -> Tuple.decode (Wire.read_string r)) in
  Wire.expect_end r;
  tuples

let run ?fault ?endpoint env client ~query =
  Outcome.Builder.run ~scheme:"mobile-code" ?fault ?endpoint (fun b link ->
      let request = Request.run b link env client ~query in
      let exact = Request.exact_result request in
      let pk = request.Request.client_pk in
      let encrypt_side which (entry : Catalog.entry) relation =
        let prng = Env.prng_for env (Printf.sprintf "mc-source-%d" entry.Catalog.source) in
        Outcome.Builder.timed b
          ~party:(Transcript.party_name (Source entry.Catalog.source)) "source-encrypt"
          (fun () ->
            let ct = Hybrid.encrypt prng pk (encode_relation relation) in
            let ct =
              match Fault.byzantine_mode fault entry.Catalog.source with
              | Some Fault.Malformed_ciphertexts ->
                Hybrid.of_wire (Fault.flip_tail (Hybrid.to_wire ct))
              | _ -> ct
            in
            Link.deliver link ~phase:"mediator-forward"
              ~sender:(Source entry.Catalog.source) ~receiver:Mediator
              ~label:(Printf.sprintf "encrypted-R%d" which)
              ~size:(Hybrid.size ct)
              (fun () -> Hybrid.to_wire ct);
            ct)
      in
      let ct1 =
        encrypt_side 1 request.Request.decomposition.Catalog.left request.Request.left_result
      in
      let ct2 =
        encrypt_side 2 request.Request.decomposition.Catalog.right request.Request.right_result
      in
      (* The mediator ships the partial results plus the mobile join
         program (the rendered algebra tree). *)
      let program = Algebra.to_string (Algebra.of_query (Parser.parse query)) in
      Link.deliver link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
        ~label:"encrypted-partials+code"
        ~size:(Hybrid.size ct1 + Hybrid.size ct2 + String.length program)
        (fun () -> Hybrid.to_wire ct1 ^ Hybrid.to_wire ct2 ^ program);
      Outcome.Builder.mediator_sees b "ciphertext-bytes-R1" (Hybrid.size ct1);
      Outcome.Builder.mediator_sees b "ciphertext-bytes-R2" (Hybrid.size ct2);

      (* The client executes the code: decrypt, then join locally. *)
      let decrypt label ct =
        decode_tuples
          (Request.decrypt ~phase:"client-postprocess" ~party:Client client.Env.key label ct)
      in
      let result =
        Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
            let left =
              Relation.make (Relation.schema request.Request.left_result) (decrypt "R1" ct1)
            in
            let right =
              Relation.make (Relation.schema request.Request.right_result) (decrypt "R2" ct2)
            in
            Outcome.Builder.client_sees b "tuples-received"
              (Relation.cardinality left + Relation.cardinality right);
            Request.finalize request (Relation.natural_join left right))
      in
      let received =
        Relation.cardinality request.Request.left_result
        + Relation.cardinality request.Request.right_result
      in
      (result, exact, received))
