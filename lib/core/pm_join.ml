open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type variant =
  | Direct_payload
  | Session_keys

let variant_name = function
  | Direct_payload -> "direct-payload"
  | Session_keys -> "session-keys"

(* Join values are injected into Z_n through a deterministic 128-bit
   encoding (the paper uses the values directly; hashing makes the
   encoding type-uniform and width-bounded — see DESIGN.md).  Both the
   polynomial roots and the evaluation points use this encoding, and the
   16 bytes double as the "a_k" prefix of the packed plaintext the client
   matches on. *)
let root_bytes key = String.sub (Sha256.digest ("pm-root" ^ Join_key.encode key)) 0 16

let root_of_key key = Bigint.of_bytes_be (root_bytes key)

let root_of_value v = root_of_key (Join_key.of_values [ v ])

let ciphertext_bytes pk = (Bigint.numbits pk.Paillier.n_squared + 7) / 8

let be64 v = String.init 8 (fun i -> Char.chr ((v lsr ((7 - i) * 8)) land 0xff))

let read_be64 s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

(* What one source's pass produces: the e-values plus (session-key
   variant) an ID table of DEM-encrypted tuple sets. *)
type side_output = {
  e_values : Paillier.ciphertext list;
  id_table : (int * string) list;
  id_table_bytes : int;
}

(* Steps 5/6 of Listing 4: for each own value a, homomorphically evaluate
   the opposite polynomial at a, mask with fresh randomness and add the
   packed (a ‖ payload).  Each group entry runs on its own PRNG stream
   (split from the side's seed) through the Batch executor: the Horner
   evaluation plus mask-and-add per entry is the source's dominant cost
   and is independent across entries.  IDs are assigned by position —
   entry i of this side gets [first_id + i] — which reproduces the
   sequential numbering for any domain count. *)
let evaluate_side ~variant ~prng ~pk ~opp_coeffs ~request ~which ~first_id =
  let items =
    Batch.map_seeded ~prng ~label:"pm-eval"
      (fun i prng (a, tuples) ->
        let payload, id_entry =
          match variant with
          | Direct_payload -> (Join_key.encode_tuple_set tuples, None)
          | Session_keys ->
            let key = Hybrid.random_session_key prng in
            let id = first_id + i in
            (key ^ be64 id, Some (id, Hybrid.dem_encrypt prng ~key (Join_key.encode_tuple_set tuples)))
        in
        let packed = root_bytes a ^ payload in
        let message =
          try Paillier.encode_bytes pk packed
          with Invalid_argument _ ->
            invalid_arg
              (Printf.sprintf
                 "Pm_join: Tup_i(%s) needs %d plaintext bytes but the Paillier key holds %d; \
                  use the Session_keys variant or a larger key"
                 (Join_key.to_string a) (String.length packed)
                 (Paillier.max_plaintext_bytes pk))
        in
        let evaluated = Pm_poly.eval_encrypted pk opp_coeffs (root_of_key a) in
        (Pm_poly.mask_and_add prng pk evaluated ~payload:message, id_entry))
      (Array.of_list (Request.groups request which))
  in
  let e_values = Array.to_list (Array.map fst items) in
  let id_table = List.filter_map snd (Array.to_list items) in
  let id_table_bytes =
    List.fold_left (fun acc (_, blob) -> acc + 8 + String.length blob) 0 id_table
  in
  { e_values; id_table; id_table_bytes }

(* The client's view of one decrypted e-value. *)
type decrypted_entry = {
  root : string;       (* 16 bytes *)
  entry_payload : string;
}

let decrypt_entries sk e_values =
  let pk = Paillier.public sk in
  (* Step 8's n+m CRT decryptions fan out across domains; decryption is
     deterministic, so plain parallel_map keeps the list order. *)
  let plains = Batch.map_list (Paillier.decrypt sk) e_values in
  List.filter_map
    (fun plain ->
      match Paillier.decode_bytes pk plain with
      | Some packed when String.length packed >= 16 ->
        Some
          {
            root = String.sub packed 0 16;
            entry_payload = String.sub packed 16 (String.length packed - 16);
          }
      | Some _ | None -> None)
    plains

let recover_tuples ~variant ~id_lookup entry =
  match variant with
  | Direct_payload -> (
    try Some (Join_key.decode_tuple_set entry.entry_payload)
    with Invalid_argument _ | Wire.Malformed _ -> None)
  | Session_keys ->
    if String.length entry.entry_payload <> 24 then None
    else begin
      let key = String.sub entry.entry_payload 0 16 in
      let id = read_be64 entry.entry_payload 16 in
      match id_lookup id with
      | None -> None
      | Some blob ->
        (match Hybrid.dem_decrypt ~key blob with
         | Some set -> (
           try Some (Join_key.decode_tuple_set set)
           with Invalid_argument _ | Wire.Malformed _ -> None)
         | None -> None)
    end

(* Canonical payloads: every Paillier ciphertext at the fixed modulus
   width, ID-table entries as 8-byte id + DEM blob — so each message's
   wire form is exactly the size the transcript declares.  One string
   per ciphertext / table entry, so the e-value messages can travel
   row-wise ([Link.deliver_rows]). *)
let cts_rows ct_bytes cts =
  List.map
    (fun c -> Bigint.to_bytes_be_padded ct_bytes (Paillier.ciphertext_to_bigint c))
    cts

let cts_payload ct_bytes cts = String.concat "" (cts_rows ct_bytes cts)

let id_table_rows table = List.map (fun (id, blob) -> be64 id ^ blob) table

(* Receiver-side range/group check: a valid Paillier ciphertext is a unit
   of Z_{n^2}, so 0 never appears honestly; the private-type constructor
   already excludes values >= n^2.  Run unconditionally — it is the
   defence against a source shipping garbage coefficients. *)
let validate_ciphertexts ~phase ~party label cts =
  List.iter
    (fun c ->
      if Bigint.is_zero (Paillier.ciphertext_to_bigint c) then
        Fault.fail ~phase ~party
          (Printf.sprintf "%s carries an out-of-group Paillier value (0 not a unit)" label))
    cts

let run ?fault ?endpoint ?(variant = Session_keys) env client ~query =
  let b = Outcome.Builder.create ~scheme:("pm-" ^ variant_name variant) in
  let tr = Outcome.Builder.transcript b in
  Fault.attach fault tr;
  let link = Link.make ?endpoint ?fault tr in
  let (result, exact, received), counters =
    Counters.with_fresh (fun () ->
        let request =
          Outcome.Builder.timed b ~party:"Mediator" "request" (fun () -> Request.run link env client ~query)
        in
        let exact = Request.exact_result env request in
        let pk = Paillier.public client.Env.paillier_key in
        let n_bytes = (Bigint.numbits pk.Paillier.n + 7) / 8 in
        let ct_bytes = ciphertext_bytes pk in
        let s1 = request.Request.decomposition.Catalog.left.Catalog.source in
        let s2 = request.Request.decomposition.Catalog.right.Catalog.source in

        (* Step 1: the client's homomorphic public key is distributed with
           its credentials (we account for it explicitly). *)
        let pk_payload () = Bigint.to_bytes_be_padded n_bytes pk.Paillier.n in
        Link.deliver link ~phase:"request" ~sender:Client ~receiver:Mediator
          ~label:"homomorphic-pk" ~size:n_bytes pk_payload;
        Link.deliver link ~phase:"request" ~sender:Mediator ~receiver:(Source s1)
          ~label:"homomorphic-pk" ~size:n_bytes pk_payload;
        Link.deliver link ~phase:"request" ~sender:Mediator ~receiver:(Source s2)
          ~label:"homomorphic-pk" ~size:n_bytes pk_payload;

        (* Steps 2/3: each source builds its polynomial from its active
           domain and sends the encrypted coefficients to the mediator. *)
        let prng1 = Env.prng_for env (Printf.sprintf "pm-source-%d" s1) in
        let prng2 = Env.prng_for env (Printf.sprintf "pm-source-%d" s2) in
        let build_poly which prng sid =
          Outcome.Builder.timed b ~party:(Transcript.party_name (Source sid)) "source-polynomial" (fun () ->
              let roots = List.map root_of_key (Request.join_attr_values request which) in
              let poly = Pm_poly.from_roots ~modulus:pk.Paillier.n roots in
              let coeffs = Pm_poly.encrypt prng pk poly in
              (* A byzantine source ships values outside the ciphertext
                 group; the opposite source's range check catches them. *)
              let coeffs =
                match Fault.byzantine_mode fault sid with
                | Some Fault.Garbage_paillier ->
                  List.map (fun _ -> Paillier.ciphertext_of_bigint pk Bigint.zero) coeffs
                | _ -> coeffs
              in
              Link.deliver_rows link ~phase:"mediator-forward" ~sender:(Source sid)
                ~receiver:Mediator ~label:"encrypted-coefficients"
                ~size:(ct_bytes * List.length coeffs)
                (fun () -> cts_rows ct_bytes coeffs);
              coeffs)
        in
        let coeffs1 = build_poly `Left prng1 s1 in
        let coeffs2 = build_poly `Right prng2 s2 in
        (* The coefficient count reveals the polynomial degree, i.e. the
           size of the active domain, to the mediator (and to the opposite
           source after forwarding). *)
        Outcome.Builder.mediator_sees b "cardinality-domactive-R1"
          (List.length coeffs1 - 1);
        Outcome.Builder.mediator_sees b "cardinality-domactive-R2"
          (List.length coeffs2 - 1);

        (* Step 4: the mediator forwards the encrypted coefficients. *)
        Link.deliver link ~phase:"source-evaluate" ~sender:Mediator ~receiver:(Source s2)
          ~label:"encrypted-coefficients-P1" ~size:(ct_bytes * List.length coeffs1)
          (fun () -> cts_payload ct_bytes coeffs1);
        Link.deliver link ~phase:"source-evaluate" ~sender:Mediator ~receiver:(Source s1)
          ~label:"encrypted-coefficients-P2" ~size:(ct_bytes * List.length coeffs2)
          (fun () -> cts_payload ct_bytes coeffs2);
        Outcome.Builder.source_sees b s1 "degree-opposite-polynomial"
          (List.length coeffs2 - 1);
        Outcome.Builder.source_sees b s2 "degree-opposite-polynomial"
          (List.length coeffs1 - 1);

        (* Steps 5/6: each source evaluates the opposite polynomial at its
           own values and returns the masked e-values. *)
        let next_first_id = ref 0 in
        let eval_side which prng sid opp_coeffs =
          Outcome.Builder.timed b ~party:(Transcript.party_name (Source sid)) "source-evaluate" (fun () ->
              validate_ciphertexts ~phase:"source-evaluate" ~party:(Source sid)
                "opposite polynomial" opp_coeffs;
              let first_id = !next_first_id in
              next_first_id := first_id + List.length (Request.groups request which);
              let output =
                evaluate_side ~variant ~prng ~pk ~opp_coeffs ~request ~which ~first_id
              in
              (* A byzantine source damages the DEM blobs of its ID table
                 (session-key variant); the client's authenticated DEM
                 decryption fails on every matched entry. *)
              let output =
                match Fault.byzantine_mode fault sid with
                | Some Fault.Malformed_ciphertexts ->
                  {
                    output with
                    id_table =
                      List.map (fun (id, blob) -> (id, Fault.flip_tail blob)) output.id_table;
                  }
                | _ -> output
              in
              Link.deliver_rows link ~phase:"mediator-forward" ~sender:(Source sid)
                ~receiver:Mediator ~label:"e-values"
                ~size:((ct_bytes * List.length output.e_values) + output.id_table_bytes)
                (fun () ->
                  cts_rows ct_bytes output.e_values @ id_table_rows output.id_table);
              output)
        in
        let out1 = eval_side `Left prng1 s1 coeffs2 in
        let out2 = eval_side `Right prng2 s2 coeffs1 in

        (* Step 7: the mediator sends the n+m encrypted values (and, in the
           session-key variant, the ID tables) to the client. *)
        let total_e = List.length out1.e_values + List.length out2.e_values in
        Link.deliver_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"e-values"
          ~size:((ct_bytes * total_e) + out1.id_table_bytes + out2.id_table_bytes)
          (fun () ->
            cts_rows ct_bytes out1.e_values
            @ cts_rows ct_bytes out2.e_values
            @ id_table_rows out1.id_table
            @ id_table_rows out2.id_table);
        Outcome.Builder.client_sees b "ciphertexts-received" total_e;

        (* Step 8: the client decrypts everything and keeps the matches. *)
        let received = ref 0 in
        let result =
          Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
              validate_ciphertexts ~phase:"client-postprocess" ~party:Client "e-values"
                out1.e_values;
              validate_ciphertexts ~phase:"client-postprocess" ~party:Client "e-values"
                out2.e_values;
              let entries1 = decrypt_entries client.Env.paillier_key out1.e_values in
              let entries2 = decrypt_entries client.Env.paillier_key out2.e_values in
              Outcome.Builder.client_sees b "well-formed-decryptions"
                (List.length entries1 + List.length entries2);
              (* Hash the ID tables and the right-side entries once, so
                 the postprocess is O(n + m) rather than O(n * m) list
                 scans (mirrors the mediator's match in
                 commutative_join.ml). *)
              let id_lookup table =
                let h = Hashtbl.create (List.length table) in
                List.iter
                  (fun (id, blob) ->
                    if not (Hashtbl.mem h id) then Hashtbl.add h id blob)
                  table;
                Hashtbl.find_opt h
              in
              let by_root = Hashtbl.create (List.length entries2) in
              List.iter (fun e -> Hashtbl.replace by_root e.root e) entries2;
              let join_attrs = Request.join_attrs request in
              let right_schema = Relation.schema request.Request.right_result in
              let pos_right = Join_key.positions right_schema join_attrs in
              let keep_right =
                Array.of_list
                  (List.filter
                     (fun i -> not (Array.exists (Int.equal i) pos_right))
                     (List.init (Schema.arity right_schema) Fun.id))
              in
              let joined_schema =
                Schema.append
                  (Relation.schema request.Request.left_result)
                  (Schema.make
                     (List.map (Schema.attr_at right_schema) (Array.to_list keep_right)))
              in
              let joined =
                List.concat_map
                  (fun e1 ->
                    match Hashtbl.find_opt by_root e1.root with
                    | None -> []
                    | Some e2 ->
                      let tup1 = recover_tuples ~variant ~id_lookup:(id_lookup out1.id_table) e1 in
                      let tup2 = recover_tuples ~variant ~id_lookup:(id_lookup out2.id_table) e2 in
                      (match (tup1, tup2) with
                       | Some tup1, Some tup2 ->
                         received := !received + (List.length tup1 * List.length tup2);
                         List.concat_map
                           (fun t1 ->
                             List.map
                               (fun t2 -> Tuple.append t1 (Tuple.project keep_right t2))
                               tup2)
                           tup1
                       | None, _ | _, None ->
                         (* A root match certifies both sides carried this
                            join value, so honest payloads always recover
                            (16-byte root collisions are negligible): an
                            unrecoverable payload is a damaged ID table,
                            not a non-match — fail closed rather than
                            silently under-report. *)
                         Fault.fail ~phase:"client-postprocess" ~party:Client
                           "matched entry with unrecoverable payload"))
                  entries1
              in
              Request.finalize request (Relation.make joined_schema joined))
        in
        Outcome.Builder.attribute b (Counters.attribution ());
        (result, exact, !received))
  in
  Outcome.Builder.finish b ~result ~exact ~client_received_tuples:received ~counters
