open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type strategy =
  | Bundles
  | Homomorphic

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Which relation an aggregated column lives in. *)
type side = L | R

type kind =
  | K_count
  | K_sum of side * string
  | K_avg of side * string
  | K_min of side * string
  | K_max of side * string

let classify ~join_attrs left_schema right_schema (spec : Aggregate.spec) =
  match spec.Aggregate.column with
  | None -> K_count
  | Some column ->
    let bare =
      match String.index_opt column '.' with
      | None -> column
      | Some i -> String.sub column (i + 1) (String.length column - i - 1)
    in
    let in_left = Schema.mem left_schema column in
    let in_right = Schema.mem right_schema column in
    let side =
      (* A join attribute lives in both relations but carries the same
         value on both sides of every matched pair; source it from the
         left. *)
      if List.exists (String.equal bare) join_attrs then L
      else begin
        match (in_left, in_right) with
        | true, false -> L
        | false, true -> R
        | true, true -> unsupported "aggregated column %s is ambiguous, qualify it" column
        | false, false -> unsupported "aggregated column %s not found" column
      end
    in
    (match spec.Aggregate.func with
     | Aggregate.Count -> K_count
     | Aggregate.Sum -> K_sum (side, column)
     | Aggregate.Avg -> K_avg (side, column)
     | Aggregate.Min -> K_min (side, column)
     | Aggregate.Max -> K_max (side, column))

(* Per-key statistics one source contributes for one of its keys. *)
let own_partials ~schema ~kinds ~own_side tuples =
  let value_of column tuple = Tuple.get tuple (Schema.find schema column) in
  let ints column =
    List.map
      (fun t ->
        match value_of column t with
        | Value.Int n -> n
        | Value.Str _ | Value.Bool _ ->
          unsupported "aggregate over non-integer column %s" column)
      tuples
  in
  List.mapi (fun index kind -> (index, kind)) kinds
  |> List.filter_map (fun (index, kind) ->
         match kind with
         | K_count -> None
         | K_sum (s, c) | K_avg (s, c) when s = own_side ->
           Some (index, List.fold_left ( + ) 0 (ints c))
         | K_min (s, c) when s = own_side ->
           Some (index, List.fold_left Stdlib.min max_int (ints c))
         | K_max (s, c) when s = own_side ->
           Some (index, List.fold_left Stdlib.max min_int (ints c))
         | K_sum _ | K_avg _ | K_min _ | K_max _ -> None)

(* A per-key bundle: the key, then c_i(a) and the source's own partials
   as one nested string. *)
let encode_bundle a ~count ~partials =
  let stats = Wire.writer () in
  Wire.write_int stats count;
  Wire.write_list stats
    (fun (index, v) ->
      Wire.write_int stats index;
      Wire.write_int stats v)
    partials;
  let w = Wire.writer () in
  Wire.write_string w (Join_key.encode a);
  Wire.write_string w (Wire.contents stats);
  Wire.contents w

let decode_bundle blob =
  let r = Wire.reader blob in
  let key = Tuple.decode (Wire.read_string r) in
  let stats = Wire.reader (Wire.read_string r) in
  Wire.expect_end r;
  let count = Wire.read_int stats in
  let partials =
    Wire.read_list stats (fun () ->
        let index = Wire.read_int stats in
        let v = Wire.read_int stats in
        (index, v))
  in
  Wire.expect_end stats;
  (key, count, partials)

(* Combine the two sides' per-key statistics into the per-key value of one
   aggregate over the joined pairs. *)
let combine_per_key kind ~c1 ~c2 ~p1 ~p2 index =
  let own side = match side with L -> List.assoc index p1 | R -> List.assoc index p2 in
  let opposite_count side = match side with L -> c2 | R -> c1 in
  match kind with
  | K_count -> `Weighted (c1 * c2)
  | K_sum (s, _) -> `Weighted (own s * opposite_count s)
  | K_avg (s, _) ->
    (* Per-key average is the side's own average (pair multiplicity
       cancels); for scalar queries the weighted sum/count pair is used. *)
    `Ratio (own s * opposite_count s, c1 * c2)
  | K_min (s, _) -> `Extremum (own s)
  | K_max (s, _) -> `Extremum (own s)

(* The client's last local step: the query's projection and DISTINCT. *)
let finalize d relation =
  let projected =
    match d.Catalog.projection with
    | None -> relation
    | Some columns -> Relation.project columns relation
  in
  if d.Catalog.distinct then Relation.distinct projected else projected

let run ?(strategy = Bundles) env client ~query =
  let scheme =
    match strategy with Bundles -> "aggregate" | Homomorphic -> "aggregate-homomorphic"
  in
  let b = Outcome.Builder.create ~scheme in
  let link = Link.make (Outcome.Builder.transcript b) in
  let (result, exact, received), counters =
    Counters.with_fresh (fun () ->
        let request =
          Outcome.Builder.timed b ~party:"Mediator" "request" (fun () ->
              Request.run link env client ~query)
        in
        let d = request.Request.decomposition in
        let specs, group_keys =
          match d.Catalog.aggregation with
          | Some (specs, keys) -> (specs, keys)
          | None -> unsupported "query has no aggregates; use the join protocols"
        in
        if d.Catalog.residual_where <> None then
          unsupported "WHERE is not supported by the aggregation protocol";
        let join_attrs = Request.join_attrs request in
        let grouped =
          match group_keys with
          | [] -> false
          | keys ->
            if List.sort compare keys = List.sort compare join_attrs then true
            else unsupported "GROUP BY must list exactly the join attributes"
        in
        let left_schema = Relation.schema request.Request.left_result in
        let right_schema = Relation.schema request.Request.right_result in
        (* Classify before computing the reference so malformed queries
           surface as Unsupported rather than a raw Not_found. *)
        let kinds = List.map (classify ~join_attrs left_schema right_schema) specs in
        let exact = Request.exact_result env request in
        let pk = request.Request.client_pk in
        let groups1 = Request.groups request `Left in
        let groups2 = Request.groups request `Right in
        let ppk = Paillier.public client.Env.paillier_key in
        let ct_bytes = (Bigint.numbits ppk.Paillier.n_squared + 7) / 8 in
        (* Bundles: each source seals, per key, its per-key statistics.
           Homomorphic: S1 ships bare hashes, S2 one Paillier ciphertext
           per aggregate at fixed width, which the mediator combines. *)
        let bundle ~own_side ~schema (a, tuples) =
          let partials = own_partials ~schema ~kinds ~own_side tuples in
          let plain = encode_bundle a ~count:(List.length tuples) ~partials in
          (a, Some (fun prng -> Hybrid.to_wire (Hybrid.encrypt prng pk plain)))
        in
        let totals (a, tuples) =
          let plains =
            List.map
              (function
                | K_count -> List.length tuples
                | K_sum (R, column) ->
                  List.fold_left
                    (fun acc t ->
                      match Tuple.get t (Schema.find right_schema column) with
                      | Value.Int n -> acc + n
                      | Value.Str _ | Value.Bool _ ->
                        unsupported "aggregate over non-integer column %s" column)
                    0 tuples
                | K_sum (L, _) | K_avg _ | K_min _ | K_max _ -> assert false)
              kinds
          in
          ( a,
            Some
              (fun prng ->
                String.concat ""
                  (List.map
                     (fun plain ->
                       Bigint.to_bytes_be_padded ct_bytes
                         (Paillier.ciphertext_to_bigint
                            (Paillier.encrypt prng ppk (Bigint.of_int plain))))
                     plains)) )
        in
        let entries1, entries2 =
          match strategy with
          | Bundles ->
            ( List.map (bundle ~own_side:L ~schema:left_schema) groups1,
              List.map (bundle ~own_side:R ~schema:right_schema) groups2 )
          | Homomorphic ->
            if grouped then unsupported "Homomorphic strategy supports scalar queries only";
            List.iter
              (function
                | K_count | K_sum (R, _) -> ()
                | K_sum (L, _) | K_avg _ | K_min _ | K_max _ ->
                  unsupported
                    "Homomorphic strategy supports COUNT and right-side SUM aggregates only")
              kinds;
            (* c1(a) must be 1 for every left key so that pair weighting
               is trivial; S1 verifies this on its own plaintext. *)
            if List.exists (fun (_, tuples) -> List.length tuples > 1) groups1 then
              unsupported
                "Homomorphic strategy requires duplicate-free join keys in the left relation";
            (List.map (fun (a, _) -> (a, None)) groups1, List.map totals groups2)
        in
        let m =
          Commutative_join.exchange b link env ~stream:"agg-source" ~use_ids:true
            ~left:(d.Catalog.left.Catalog.source, entries1)
            ~right:(d.Catalog.right.Catalog.source, entries2)
        in
        match strategy with
        | Bundles ->
          let forwarded =
            List.map (fun (i, j) -> (m.left_payloads.(i), m.right_payloads.(j))) m.pairs
          in
          Link.deliver_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
            ~label:"matched-bundles"
            ~size:
              (List.fold_left
                 (fun acc (x, y) -> acc + String.length x + String.length y)
                 0 forwarded)
            (fun () -> List.map (fun (x, y) -> x ^ y) forwarded);
          Outcome.Builder.client_sees b "bundles-received" (2 * List.length forwarded);

          (* Client: decrypt bundles, combine per key, assemble. *)
          let result =
            Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
                let decrypt ct =
                  match Hybrid.decrypt client.Env.key (Hybrid.of_wire ct) with
                  | Some blob -> decode_bundle blob
                  | None ->
                    Fault.fail ~phase:"client-postprocess" ~party:Client
                      "authentication failure on an aggregate bundle"
                in
                let per_key =
                  List.map
                    (fun (ct1, ct2) ->
                      let key, c1, p1 = decrypt ct1 in
                      let _, c2, p2 = decrypt ct2 in
                      let values =
                        List.mapi
                          (fun index kind -> combine_per_key kind ~c1 ~c2 ~p1 ~p2 index)
                          kinds
                      in
                      (key, values))
                    forwarded
                in
                let spec_ty = function
                  | K_count | K_sum _ | K_avg _ -> Value.Tint
                  | K_min (side, column) | K_max (side, column) ->
                    let schema = match side with L -> left_schema | R -> right_schema in
                    (Schema.attr_at schema (Schema.find schema column)).Schema.ty
                in
                let agg_attrs =
                  List.map2
                    (fun kind (spec : Aggregate.spec) ->
                      Schema.attr spec.Aggregate.alias (spec_ty kind))
                    kinds specs
                in
                let relation =
                  if grouped then begin
                    let key_attrs =
                      List.map
                        (fun name -> Schema.attr_at left_schema (Schema.find left_schema name))
                        group_keys
                    in
                    let schema = Schema.make (key_attrs @ agg_attrs) in
                    (* group_keys may reorder join_attrs; map positions. *)
                    let reorder key =
                      List.map
                        (fun name ->
                          let rec find i = function
                            | [] -> assert false
                            | attr :: rest ->
                              if String.equal attr name then i else find (i + 1) rest
                          in
                          Tuple.get key (find 0 join_attrs))
                        group_keys
                    in
                    let rows =
                      List.map
                        (fun (key, values) ->
                          reorder key
                          @ List.map
                              (function
                                | `Weighted v -> Value.Int v
                                | `Ratio (num, den) -> Value.Int (num / den)
                                | `Extremum v -> Value.Int v)
                              values)
                        per_key
                    in
                    Relation.sort (Relation.of_rows schema rows)
                  end
                  else begin
                    let schema = Schema.make agg_attrs in
                    if per_key = [] then begin
                      (* Match Aggregate.group_by semantics on empty input. *)
                      let row =
                        List.map
                          (function
                            | K_count -> Value.Int 0
                            | K_sum _ | K_avg _ | K_min _ | K_max _ ->
                              invalid_arg
                                "Aggregate.group_by: non-count aggregate over empty relation")
                          kinds
                      in
                      Relation.of_rows schema [ row ]
                    end
                    else begin
                      let row =
                        List.mapi
                          (fun index kind ->
                            let values = List.map (fun (_, vs) -> List.nth vs index) per_key in
                            let weighted = function
                              | `Weighted v -> v
                              | `Ratio _ | `Extremum _ -> assert false
                            in
                            let extremum = function
                              | `Extremum v -> v
                              | `Weighted _ | `Ratio _ -> assert false
                            in
                            match kind with
                            | K_count | K_sum _ ->
                              Value.Int (List.fold_left (fun acc v -> acc + weighted v) 0 values)
                            | K_avg _ ->
                              let num, den =
                                List.fold_left
                                  (fun (n, d) -> function
                                    | `Ratio (num, den) -> (n + num, d + den)
                                    | `Weighted _ | `Extremum _ -> assert false)
                                  (0, 0) values
                              in
                              Value.Int (num / den)
                            | K_min _ ->
                              Value.Int
                                (List.fold_left (fun acc v -> Stdlib.min acc (extremum v)) max_int values)
                            | K_max _ ->
                              Value.Int
                                (List.fold_left (fun acc v -> Stdlib.max acc (extremum v)) min_int values))
                          kinds
                      in
                      Relation.of_rows schema [ row ]
                    end
                  end
                in
                finalize d relation)
          in
          (result, exact, List.length forwarded)

        | Homomorphic ->
          (* Mediator: combine the matched right-side ciphertexts under
             the client's Paillier key. *)
          let ciphertexts payload =
            List.init (List.length kinds) (fun index ->
                Paillier.ciphertext_of_bigint ppk
                  (Bigint.of_bytes_be (String.sub payload (index * ct_bytes) ct_bytes)))
          in
          let matched = List.map (fun (_, j) -> ciphertexts m.right_payloads.(j)) m.pairs in
          let mediator_prng = Env.prng_for env "agg-mediator" in
          let totals =
            Outcome.Builder.timed b ~party:"Mediator" "mediator-combine" (fun () ->
                List.mapi
                  (fun index _ ->
                    match List.map (fun cts -> List.nth cts index) matched with
                    | [] -> Paillier.encrypt mediator_prng ppk Bigint.zero
                    | first :: rest -> List.fold_left (Paillier.add ppk) first rest)
                  kinds)
          in
          Link.deliver link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
            ~label:"aggregate-totals" ~size:(ct_bytes * List.length totals)
            (fun () ->
              String.concat ""
                (List.map
                   (fun ct ->
                     Bigint.to_bytes_be_padded ct_bytes (Paillier.ciphertext_to_bigint ct))
                   totals));
          Outcome.Builder.client_sees b "ciphertexts-received" (List.length totals);
          let result =
            Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
                let schema =
                  Schema.make
                    (List.map
                       (fun (spec : Aggregate.spec) -> Schema.attr spec.Aggregate.alias Value.Tint)
                       specs)
                in
                let row =
                  List.map
                    (fun ct -> Value.Int (Bigint.to_int (Paillier.decrypt client.Env.paillier_key ct)))
                    totals
                in
                finalize d (Relation.of_rows schema [ row ]))
          in
          (result, exact, List.length matched))
  in
  Outcome.Builder.finish b ~result ~exact ~client_received_tuples:received ~counters
