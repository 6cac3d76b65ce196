open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type op =
  | Intersection
  | Semi_join
  | Difference

let op_name = function
  | Intersection -> "intersection"
  | Semi_join -> "semi-join"
  | Difference -> "difference"

let bare_names relation =
  List.map (fun a -> a.Schema.name) (Schema.attrs (Relation.schema relation))

(* Reference (trusted-mediator) results. *)
let exact_result op ~on left right =
  match op with
  | Intersection -> Relation.intersect (Relation.distinct left) (Relation.distinct right)
  | Difference -> Relation.diff (Relation.distinct left) (Relation.distinct right)
  | Semi_join ->
    let right_keys = Join_key.distinct_keys right on in
    let positions = Join_key.positions (Relation.schema left) on in
    Relation.make (Relation.schema left)
      (List.filter
         (fun tuple ->
           let key = Join_key.of_tuple positions tuple in
           List.exists (Join_key.equal key) right_keys)
         (Relation.tuples left))

let run ?on env client op ~left ~right =
  let b = Outcome.Builder.create ~scheme:(op_name op) in
  let link = Link.make (Outcome.Builder.transcript b) in
  let (result, exact, received), counters =
    Counters.with_fresh (fun () ->
        (* Request phase as usual; the two partial queries are the same
           "select *" queries as for a join. *)
        let query = Printf.sprintf "select * from %s natural join %s" left right in
        let request =
          Outcome.Builder.timed b ~party:"Mediator" "request" (fun () ->
              Request.run link env client ~query)
        in
        let left_rel = request.Request.left_result in
        let right_rel = request.Request.right_result in
        let key_attrs =
          match op with
          | Semi_join -> Option.value ~default:(Request.join_attrs request) on
          | Intersection | Difference ->
            if not (Schema.equal_layout (Relation.schema left_rel) (Relation.schema right_rel))
            then
              invalid_arg
                (Printf.sprintf "Set_ops.%s: relations %s and %s have different layouts"
                   (op_name op) left right);
            bare_names left_rel
        in
        let exact = Request.finalize request (exact_result op ~on:key_attrs left_rel right_rel) in
        let pk = request.Request.client_pk in
        let d = request.Request.decomposition in
        (* S1 seals its payloads; S2 contributes bare hashes only — no
           tuple data leaves S2.  The mediator keeps the payloads behind
           IDs and forwards the selected ones. *)
        let payload_of tuples =
          match op with
          | Semi_join -> tuples
          | Intersection | Difference ->
            (* Whole-tuple keys: every member of the group is the same
               tuple; ship one representative (set semantics). *)
            (match tuples with [] -> [] | t :: _ -> [ t ])
        in
        let seal tuples prng =
          Hybrid.to_wire (Hybrid.encrypt prng pk (Join_key.encode_tuple_set (payload_of tuples)))
        in
        let m =
          Commutative_join.exchange b link env ~stream:"setop-source" ~use_ids:true
            ~left:
              ( d.Catalog.left.Catalog.source,
                List.map (fun (a, tuples) -> (a, Some (seal tuples)))
                  (Join_key.group_by left_rel key_attrs) )
            ~right:
              ( d.Catalog.right.Catalog.source,
                List.map (fun a -> (a, None)) (Join_key.distinct_keys right_rel key_attrs) )
        in
        let selected =
          match op with
          | Intersection | Semi_join -> List.map (fun (i, _) -> m.left_payloads.(i)) m.pairs
          | Difference ->
            let matched = Hashtbl.create 64 in
            List.iter (fun (i, _) -> Hashtbl.replace matched i ()) m.pairs;
            List.filteri (fun i _ -> not (Hashtbl.mem matched i))
              (Array.to_list m.left_payloads)
        in
        Outcome.Builder.mediator_sees b "payloads-forwarded" (List.length selected);
        Link.deliver_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"selected-payloads"
          ~size:(List.fold_left (fun acc ct -> acc + String.length ct) 0 selected)
          (fun () -> selected);

        (* Client: decrypt and assemble. *)
        let received = ref 0 in
        let result =
          Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
              let tuples =
                List.concat_map
                  (fun ct ->
                    match Hybrid.decrypt client.Env.key (Hybrid.of_wire ct) with
                    | Some blob ->
                      let tuples = Join_key.decode_tuple_set blob in
                      received := !received + List.length tuples;
                      tuples
                    | None ->
                      Fault.fail ~phase:"client-postprocess" ~party:Client
                        "authentication failure on payload")
                  selected
              in
              let relation = Relation.make (Relation.schema left_rel) tuples in
              let relation =
                match op with
                | Intersection | Difference -> Relation.distinct relation
                | Semi_join -> relation
              in
              Request.finalize request relation)
        in
        (result, exact, !received))
  in
  Outcome.Builder.finish b ~result ~exact ~client_received_tuples:received ~counters
