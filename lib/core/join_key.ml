open Secmed_relalg
module Wire = Secmed_mediation.Wire

type t = Value.t list

let of_values = function
  | [] -> invalid_arg "Join_key.of_values: empty key"
  | values -> values

let values t = t
let arity = List.length
let nth = List.nth

let compare a b = Tuple.compare (Tuple.of_list a) (Tuple.of_list b)
let equal a b = compare a b = 0

let encode t = Tuple.encode (Tuple.of_list t)

let to_string t = String.concat "," (List.map Value.to_string t)

let positions schema names = Array.of_list (List.map (Schema.find schema) names)

let of_tuple positions tuple =
  Array.to_list (Array.map (Tuple.get tuple) positions)

let distinct_keys relation names =
  let positions = positions (Relation.schema relation) names in
  List.sort_uniq compare (List.map (of_tuple positions) (Relation.tuples relation))

let group_by relation names =
  let positions = positions (Relation.schema relation) names in
  let table = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun tuple ->
      let key = of_tuple positions tuple in
      let encoded = encode key in
      match Hashtbl.find_opt table encoded with
      | Some (k, tuples) -> Hashtbl.replace table encoded (k, tuple :: tuples)
      | None ->
        Hashtbl.add table encoded (key, [ tuple ]);
        order := encoded :: !order)
    (Relation.tuples relation);
  List.map
    (fun encoded ->
      let key, tuples = Hashtbl.find table encoded in
      (key, List.rev tuples))
    (List.rev !order)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let encode_tuple_set tuples =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Tuple.encode t)) tuples;
  Wire.contents w

let decode_tuple_set blob =
  let r = Wire.reader blob in
  let tuples = Wire.read_list r (fun () -> Tuple.decode (Wire.read_string r)) in
  Wire.expect_end r;
  tuples
