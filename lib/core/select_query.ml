open Secmed_crypto
open Secmed_relalg
open Secmed_sql
open Secmed_mediation

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Rewrite attribute references to their bare names so the translated
   condition lines up with the mediator's idx_<bare> columns. *)
let normalize_predicate schema p =
  let bare name =
    let position = Schema.find schema name in
    (Schema.attr_at schema position).Schema.name
  in
  let term = function
    | Predicate.Attr a -> Predicate.Attr (bare a)
    | Predicate.Const _ as c -> c
  in
  let rec go = function
    | Predicate.True -> Predicate.True
    | Predicate.False -> Predicate.False
    | Predicate.Cmp (op, x, y) -> Predicate.Cmp (op, term x, term y)
    | Predicate.And (a, b) -> Predicate.And (go a, go b)
    | Predicate.Or (a, b) -> Predicate.Or (go a, go b)
    | Predicate.Not a -> Predicate.Not (go a)
    | Predicate.In (x, vs) -> Predicate.In (term x, vs)
  in
  go p

let run ?(strategy = Das_partition.Equi_depth 4) env client ~query =
  Outcome.Builder.run ~scheme:"das-select" (fun b link ->
      let ast = Parser.parse query in
      if ast.Ast.joins <> [] then
        unsupported "selection protocol handles single relations; use the join protocols";
      if Ast.has_aggregates ast || ast.Ast.group_by <> [] then
        unsupported "use the aggregation protocol for aggregate queries";
      let entry =
        try Catalog.locate env.Env.catalog ast.Ast.from.Ast.table
        with Not_found -> unsupported "unknown relation %s" ast.Ast.from.Ast.table
      in
      let sid = entry.Catalog.source in
      (* Request phase with a single partial query: the source
         relation, no join attributes. *)
      Request.send_query link client ~query;
      let credentials =
        Request.send_partial link env client entry
          ~partial_query:entry.Catalog.source_relation ~join_attrs:[]
      in
      let granted = Request.authorize env entry credentials in
      let schema = Relation.schema granted in
      let where =
        Option.map
          (fun w -> normalize_predicate schema (Algebra.predicate_of_expr w))
          ast.Ast.where
      in
      (* Reference result. *)
      let apply_clauses relation =
        let filtered =
          match where with None -> relation | Some p -> Relation.select p relation
        in
        let projected =
          match ast.Ast.select with
          | None -> filtered
          | Some items ->
            Relation.project
              (List.map
                 (function
                   | Ast.S_column c -> Ast.column_name c
                   | Ast.S_aggregate _ -> assert false)
                 items)
              filtered
        in
        if ast.Ast.distinct then Relation.distinct projected else projected
      in
      let exact = apply_clauses granted in

      (* The source indexes every attribute the condition references. *)
      let indexed_attrs =
        match where with
        | None -> []
        | Some p ->
          List.sort_uniq String.compare
            (List.filter_map
               (fun name ->
                 match Schema.find_opt schema name with
                 | Some position -> Some (Schema.attr_at schema position).Schema.name
                 | None -> None)
               (Predicate.attrs_used p))
      in
      let prng = Env.prng_for env (Printf.sprintf "select-source-%d" sid) in
      let pk =
        match credentials with
        | c :: _ -> Credential.public_key c
        | [] -> raise (Request.Access_denied sid)
      in
      let tables =
        Das.index_tables strategy ~relation:entry.Catalog.relation indexed_attrs granted
      in
      let rs =
        Outcome.Builder.timed b ~party:(Transcript.party_name (Source sid)) "source-encrypt"
          (fun () -> Das.encrypt_relation prng pk tables ~join_attrs:indexed_attrs granted)
      in
      let enc_tables =
        let w = Wire.writer () in
        Wire.write_list w
          (fun (attr, table) ->
            Wire.write_string w attr;
            Wire.write_string w (Das_partition.to_wire table))
          (List.combine indexed_attrs tables);
        Hybrid.encrypt prng pk (Wire.contents w)
      in
      Link.deliver_rows link ~phase:"source-upload" ~sender:(Source sid) ~receiver:Mediator
        ~label:"RS+enc(ITables)" ~size:(rs.Das.wire_size + Hybrid.size enc_tables)
        (fun () -> Das.er_rows rs @ [ Hybrid.to_wire enc_tables ]);
      Outcome.Builder.mediator_sees b "cardinality-RS" (List.length rs.Das.rows);

      (* Client setting: tables travel to the client, which translates. *)
      Link.deliver link ~phase:"client-translate" ~sender:Mediator ~receiver:Client
        ~label:"enc(ITables)" ~size:(Hybrid.size enc_tables)
        (fun () -> Hybrid.to_wire enc_tables);
      let server_condition =
        Outcome.Builder.timed b ~party:"Client" "client-translate" (fun () ->
            match where with
            | None -> Predicate.True
            | Some p ->
              let r =
                Wire.reader
                  (Request.decrypt ~phase:"client-translate" ~party:Client client.Env.key
                     "ITables" enc_tables)
              in
              let decoded =
                Wire.read_list r (fun () ->
                    let attr = Wire.read_string r in
                    let table = Das_partition.of_wire (Wire.read_string r) in
                    (attr, table))
              in
              Wire.expect_end r;
              Das_translate.translate
                ~tables:(fun attr -> List.assoc_opt attr decoded)
                p)
      in
      (* q_S is modelled at 24 bytes per predicate node. *)
      Link.deliver link ~phase:"mediator-server-query" ~sender:Client ~receiver:Mediator
        ~label:"server-query-qS"
        ~size:(24 * Stdlib.max 1 (Predicate.size server_condition))
        (fun () -> "");
      Outcome.Builder.mediator_sees b "condition-size-qS" (Predicate.size server_condition);

      (* The mediator filters the encrypted relation with the relational
         engine over the index columns. *)
      let rc =
        Outcome.Builder.timed b ~party:"Mediator" "mediator-server-query" (fun () ->
            let index_schema =
              Schema.make
                (Schema.attr "etuple" Value.Tstring
                :: List.map
                     (fun attr -> Schema.attr (Das_translate.index_attr attr) Value.Tint)
                     indexed_attrs)
            in
            let index_relation =
              Relation.make index_schema
                (List.map
                   (fun (ct, indexes) ->
                     Tuple.of_list
                       (Value.Str (Hybrid.to_wire ct)
                       :: Array.to_list (Array.map (fun i -> Value.Int i) indexes)))
                   rs.Das.rows)
            in
            List.map
              (fun t ->
                match Tuple.get t 0 with
                | Value.Str wire -> Hybrid.of_wire wire
                | Value.Int _ | Value.Bool _ -> assert false)
              (Relation.tuples (Relation.select server_condition index_relation)))
      in
      Outcome.Builder.mediator_sees b "cardinality-RC" (List.length rc);
      Link.deliver_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
        ~label:"RC"
        ~size:(List.fold_left (fun acc ct -> acc + Hybrid.size ct) 0 rc)
        (fun () -> List.map Hybrid.to_wire rc);
      Outcome.Builder.client_sees b "candidates-received" (List.length rc);

      (* Client: decrypt, post-filter with the original condition. *)
      let result =
        Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
            let tuples =
              List.map
                (fun ct ->
                  Tuple.decode
                    (Request.decrypt ~phase:"client-postprocess" ~party:Client client.Env.key
                       "etuple" ct))
                rc
            in
            apply_clauses (Relation.make schema tuples))
      in
      (result, exact, List.length rc))
