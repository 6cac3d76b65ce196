open Secmed_relalg
open Secmed_sql
open Secmed_mediation

exception Access_denied of int
exception Bad_credential of int

type t = {
  decomposition : Catalog.decomposition;
  client_pk : Secmed_crypto.Elgamal.public_key;
  left_result : Relation.t;
  right_result : Relation.t;
  credentials_left : Credential.t list;
  credentials_right : Credential.t list;
}

let credential_size credentials =
  List.fold_left (fun acc c -> acc + Credential.size c) 0 credentials

(* The mediator forwards the credential subset relevant to a source: those
   carrying at least one property key the source advertises (all of them
   when the source advertises nothing). *)
let select_credentials (source : Env.source) credentials =
  match source.Env.advertised with
  | [] -> credentials
  | keys ->
    List.filter
      (fun c ->
        List.exists
          (fun p -> List.exists (String.equal p.Credential.key) keys)
          (Credential.properties c))
      credentials

let authorize env entry credentials =
  let source_id = entry.Catalog.source in
  let source = Env.source_by_id env source_id in
  (* Step 4: S_i checks the credentials. *)
  List.iter
    (fun c ->
      if not (Credential.Authority.verify env.Env.ca c) then
        raise (Bad_credential source_id))
    credentials;
  if credentials = [] then raise (Access_denied source_id);
  let relation =
    match List.assoc_opt entry.Catalog.source_relation source.Env.relations with
    | Some r -> r
    | None -> raise (Access_denied source_id)
  in
  let properties = List.concat_map Credential.properties credentials in
  match Policy.apply source.Env.policy properties relation with
  | None -> raise (Access_denied source_id)
  | Some granted -> Relation.rename entry.Catalog.relation granted

(* Step 1: client -> mediator: the query and the credential set CR.
   The declared size includes the credential bytes; the wire frame is
   zero-padded up to it (the prototype never materialises credential
   encodings). *)
let send_query link (client : Env.client) ~query =
  Link.deliver link ~phase:"request" ~sender:Client ~receiver:Mediator ~label:"global-query"
    ~size:(String.length query + credential_size client.Env.credentials)
    (fun () -> query)

(* Step 3: mediator -> S_i : <q_i, CR_i, A_i>, with CR_i picked in step 2. *)
let send_partial link env (client : Env.client) entry ~partial_query ~join_attrs =
  let source = Env.source_by_id env entry.Catalog.source in
  let credentials = select_credentials source client.Env.credentials in
  let attrs_bytes = List.fold_left (fun acc a -> acc + String.length a) 0 join_attrs in
  Link.deliver link ~phase:"request" ~sender:Mediator ~receiver:(Source entry.Catalog.source)
    ~label:"partial-query"
    ~size:(String.length partial_query + credential_size credentials + attrs_bytes)
    (fun () -> partial_query);
  credentials

let run b link env (client : Env.client) ~query =
  Outcome.Builder.timed b ~party:"Mediator" "request" (fun () ->
      send_query link client ~query;
      (* Step 2: the mediator decomposes q and localizes the sources. *)
      let decomposition = Catalog.decompose env.Env.catalog (Parser.parse query) in
      let left_entry = decomposition.Catalog.left
      and right_entry = decomposition.Catalog.right in
      let send_partial entry partial_query =
        send_partial link env client entry ~partial_query
          ~join_attrs:decomposition.Catalog.join_attrs
      in
      let credentials_left = send_partial left_entry decomposition.Catalog.partial_query_left in
      let credentials_right =
        send_partial right_entry decomposition.Catalog.partial_query_right
      in
      (* Step 4 at each source. *)
      let left_result = authorize env left_entry credentials_left in
      let right_result = authorize env right_entry credentials_right in
      let client_pk =
        match credentials_left with
        | c :: _ -> Credential.public_key c
        | [] -> raise (Access_denied left_entry.Catalog.source)
      in
      {
        decomposition;
        client_pk;
        left_result;
        right_result;
        credentials_left;
        credentials_right;
      })

let decrypt ~phase ~party key label ct =
  match Secmed_crypto.Hybrid.decrypt key ct with
  | Some plain -> plain
  | None ->
    Fault.fail ~phase ~party (Printf.sprintf "authentication failure decrypting %s" label)

let finalize t joined =
  let with_where =
    match t.decomposition.Catalog.residual_where with
    | None -> joined
    | Some predicate -> Relation.select predicate joined
  in
  let with_aggregation =
    match t.decomposition.Catalog.aggregation with
    | None -> with_where
    | Some (specs, keys) -> Aggregate.group_by with_where ~keys ~specs
  in
  let with_projection =
    match t.decomposition.Catalog.projection with
    | None -> with_aggregation
    | Some columns -> Relation.project columns with_aggregation
  in
  if t.decomposition.Catalog.distinct then Relation.distinct with_projection
  else with_projection

let exact_result t =
  (* The reference join is harness work, not protocol work: it gets its
     own operation span so traced runs can separate it from the scheme. *)
  Secmed_obs.Trace.with_span "ground-truth" (fun () ->
      finalize t (Relation.natural_join t.left_result t.right_result))

let side t = function
  | `Left -> t.left_result
  | `Right -> t.right_result

let join_attrs t = t.decomposition.Catalog.join_attrs

let join_attr_values t which =
  Join_key.distinct_keys (side t which) (join_attrs t)

let groups t which = Join_key.group_by (side t which) (join_attrs t)

let client_join t matches =
  let right_schema = Relation.schema t.right_result in
  let pos_right = Join_key.positions right_schema (join_attrs t) in
  let keep_right =
    Array.of_list
      (List.filter
         (fun i -> not (Array.exists (Int.equal i) pos_right))
         (List.init (Schema.arity right_schema) Fun.id))
  in
  let joined_schema =
    Schema.append (Relation.schema t.left_result)
      (Schema.make (List.map (Schema.attr_at right_schema) (Array.to_list keep_right)))
  in
  let joined =
    List.concat_map
      (fun (tup1, tup2) ->
        List.concat_map
          (fun t1 -> List.map (fun t2 -> Tuple.append t1 (Tuple.project keep_right t2)) tup2)
          tup1)
      matches
  in
  finalize t (Relation.make joined_schema joined)
