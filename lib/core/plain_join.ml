open Secmed_relalg
open Secmed_mediation

let relation_size relation =
  List.fold_left (fun acc t -> acc + String.length (Tuple.encode t)) 0 (Relation.tuples relation)

let run ?fault ?endpoint env client ~query =
  Outcome.Builder.run ~scheme:"plain" ?fault ?endpoint (fun b link ->
      let request = Request.run b link env client ~query in
      let exact = Request.exact_result request in
      let send which (entry : Catalog.entry) relation =
        Link.deliver link ~phase:"mediator-join"
          ~sender:(Source entry.Catalog.source) ~receiver:Mediator
          ~label:(Printf.sprintf "plaintext-R%d" which)
          ~size:(relation_size relation)
          (fun () -> String.concat "" (List.map Tuple.encode (Relation.tuples relation)))
      in
      send 1 request.Request.decomposition.Catalog.left request.Request.left_result;
      send 2 request.Request.decomposition.Catalog.right request.Request.right_result;
      (* The mediator sees everything in the plain pipeline. *)
      Outcome.Builder.mediator_sees b "plaintext-tuples-seen"
        (Relation.cardinality request.Request.left_result
        + Relation.cardinality request.Request.right_result);
      let result =
        Outcome.Builder.timed b ~party:"Mediator" "mediator-join" (fun () ->
            Request.finalize request
              (Relation.natural_join request.Request.left_result request.Request.right_result))
      in
      Link.deliver link ~phase:"client-receive" ~sender:Mediator ~receiver:Client
        ~label:"global-result" ~size:(relation_size result)
        (fun () -> String.concat "" (List.map Tuple.encode (Relation.tuples result)));
      Outcome.Builder.client_sees b "tuples-received" (Relation.cardinality result);
      (result, exact, Relation.cardinality result))
