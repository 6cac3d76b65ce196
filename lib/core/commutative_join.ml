open Secmed_bigint
open Secmed_crypto
open Secmed_mediation

let group_bytes group = (group.Group.bits + 7) / 8

type entry = Join_key.t * (Prng.t -> string) option

type exchanged = {
  pairs : (int * int) list;
  left_payloads : string array;
  right_payloads : string array;
}

(* What travels with a (re-)encrypted hash: nothing, the mediator's
   8-byte ID for a payload it retained (footnote 1), or the payload. *)
type carried = Bare | Id of int | Ct of string

(* Canonical wire rows: the hash at the group's fixed byte width followed
   by the carried bytes, so each message's wire form is exactly the size
   the transcript declares.  One string per entry, so the sets can
   travel row-wise ([Link.deliver_rows]). *)
let rows group entries =
  let gb = group_bytes group in
  List.map
    (fun (h, carried) ->
      let w = Wire.writer () in
      Wire.write_raw w (Bigint.to_bytes_be_padded gb h);
      (match carried with
       | Bare -> ()
       | Id i -> Wire.write_int w i
       | Ct ct -> Wire.write_raw w ct);
      Wire.contents w)
    entries

(* The i-th message of a set as it travels: a source always sends its
   payloads; the mediator substitutes IDs for them under [ids]. *)
let carried ~ids messages =
  Array.to_list
    (Array.mapi
       (fun i (h, p) ->
         (h, match p with None -> Bare | Some _ when ids -> Id i | Some ct -> Ct ct))
       messages)

let wire_size group entries =
  List.fold_left
    (fun acc (_, carried) ->
      acc + group_bytes group
      + (match carried with Bare -> 0 | Id _ -> 8 | Ct ct -> String.length ct))
    0 entries

let exchange b link env ~stream ~use_ids ~left:(s1, entries1) ~right:(s2, entries2) =
  let fault = Link.fault link in
  let group = env.Env.group in
  let party sid = Transcript.party_name (Source sid) in
  (* Steps 1-3 at one source: key generation, then per key a hash, f_e
     and the payload's sealing on independent split streams (the Batch
     executor fans the loop across domains with bit-identical messages
     at any domain count), then the shuffle from the parent stream — so
     the mediator never sees the message set in key order. *)
  let side sid entries =
    let prng = Env.prng_for env (Printf.sprintf "%s-%d" stream sid) in
    let key, sealed, order =
      Outcome.Builder.timed b ~party:(party sid) "source-encrypt" (fun () ->
          let key = Commutative.keygen prng group in
          let sealed =
            Batch.map_seeded ~prng ~label:"comm-msg"
              (fun _ prng (a, seal) ->
                ( Commutative.apply key (Random_oracle.hash group (Join_key.encode a)),
                  Option.map (fun seal -> seal prng) seal ))
              (Array.of_list entries)
          in
          let order = Array.init (Array.length sealed) Fun.id in
          Prng.shuffle prng order;
          (key, sealed, order))
    in
    (* A byzantine source ships payloads that parse but fail
       authentication when the client opens them (DESIGN.md §8). *)
    let sealed =
      match Fault.byzantine_mode fault sid with
      | Some Fault.Malformed_ciphertexts ->
        Array.map (fun (h, p) -> (h, Option.map Fault.flip_tail p)) sealed
      | _ -> sealed
    in
    let messages = Array.map (fun i -> sealed.(i)) order in
    let sent = carried ~ids:false messages in
    Link.deliver_rows link ~phase:"mediator-exchange" ~sender:(Source sid) ~receiver:Mediator
      ~label:"M_i" ~size:(wire_size group sent)
      (fun () -> rows group sent);
    (key, sealed, order, messages)
  in
  let key1, sealed1, order1, m1 = side s1 entries1 in
  let key2, sealed2, order2, m2 = side s2 entries2 in
  (* Conformance audit (only under a fault plan, so honest runs stay
     byte-identical): a public canary h0 travels both directions; the
     mediator later checks f_e1(f_e2(h0)) = f_e2(f_e1(h0)), which catches
     a source whose second pass used a stale key. *)
  let canary_h0 =
    if Fault.auditing fault then Some (Random_oracle.hash group "commutative-canary") else None
  in
  let send_canary sid key =
    Option.map
      (fun h0 ->
        let ch = Commutative.apply key h0 in
        Link.deliver link ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator
          ~label:"canary" ~guard:false ~size:(group_bytes group)
          (fun () -> Bigint.to_bytes_be_padded (group_bytes group) ch);
        ch)
      canary_h0
  in
  let canary1 = send_canary s1 key1 and canary2 = send_canary s2 key2 in
  Outcome.Builder.mediator_sees b "cardinality-domactive-R1" (Array.length m1);
  Outcome.Builder.mediator_sees b "cardinality-domactive-R2" (Array.length m2);

  (* Step 4: the mediator exchanges the message sets, optionally keeping
     the payloads and substituting their positions as IDs. *)
  let to_s2 = carried ~ids:use_ids m1 and to_s1 = carried ~ids:use_ids m2 in
  Link.deliver link ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source s2)
    ~label:"M_1" ~size:(wire_size group to_s2) (fun () -> String.concat "" (rows group to_s2));
  Link.deliver link ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source s1)
    ~label:"M_2" ~size:(wire_size group to_s1) (fun () -> String.concat "" (rows group to_s1));
  Outcome.Builder.source_sees b s1 "cardinality-domactive-opposite" (Array.length m2);
  Outcome.Builder.source_sees b s2 "cardinality-domactive-opposite" (Array.length m1);

  (* Steps 5-6: each source applies its key on top of the other's.  A
     byzantine source may use a stale (different) key for the second
     pass, which would silently empty the intersection — the canary
     audit catches it. *)
  let double_encrypt sid key entries other_canary =
    Outcome.Builder.timed b ~party:(party sid) "source-reencrypt" (fun () ->
        let key =
          match Fault.byzantine_mode fault sid with
          | Some Fault.Stale_commutative_key ->
            Commutative.keygen (Env.prng_for env (Printf.sprintf "stale-comm-key-%d" sid)) group
          | _ -> key
        in
        let reencrypted = List.map (fun (h, c) -> (Commutative.apply key h, c)) entries in
        Link.deliver_rows link ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator
          ~label:"doubly-encrypted" ~size:(wire_size group reencrypted)
          (fun () -> rows group reencrypted);
        (List.map fst reencrypted, Option.map (Commutative.apply key) other_canary))
  in
  let from_s1, double_canary1 = double_encrypt s1 key1 to_s1 canary2 in
  let from_s2, double_canary2 = double_encrypt s2 key2 to_s2 canary1 in
  (match (double_canary1, double_canary2) with
   | Some a, Some b when not (Bigint.equal a b) ->
     Fault.fail ~phase:"mediator-match" ~party:Mediator
       "commutative canary mismatch: a source re-encrypted under a stale key"
   | _ -> ());

  (* Step 7: the mediator matches identical doubly-encrypted hashes.
     from_s2 re-encrypts S1's set (positions into m1), from_s1 S2's. *)
  let pairs =
    Outcome.Builder.timed b ~party:"Mediator" "mediator-match" (fun () ->
        let table = Hashtbl.create 64 in
        List.iteri (fun i h -> Hashtbl.replace table (Bigint.to_string h) i) from_s2;
        List.concat
          (List.mapi
             (fun j h ->
               match Hashtbl.find_opt table (Bigint.to_string h) with
               | Some i -> [ (order1.(i), order2.(j)) ]
               | None -> [])
             from_s1))
  in
  Outcome.Builder.mediator_sees b "intersection-size" (List.length pairs);
  let payloads sealed = Array.map (fun (_, p) -> Option.value ~default:"" p) sealed in
  { pairs; left_payloads = payloads sealed1; right_payloads = payloads sealed2 }

let run ?fault ?endpoint ?(use_ids = false) env client ~query =
  Outcome.Builder.run ~scheme:"commutative" ?fault ?endpoint (fun b link ->
      let request = Request.run b link env client ~query in
      let exact = Request.exact_result request in
      let pk = request.Request.client_pk in
      let d = request.Request.decomposition in
      (* Steps 1-7, each Tup_i(a) hybrid-encrypted as a's payload. *)
      let entries which =
        List.map
          (fun (a, tuples) ->
            ( a,
              Some
                (fun prng ->
                  Hybrid.to_wire (Hybrid.encrypt prng pk (Join_key.encode_tuple_set tuples))) ))
          (Request.groups request which)
      in
      let m =
        exchange b link env ~stream:"comm-source" ~use_ids
          ~left:(d.Catalog.left.Catalog.source, entries `Left)
          ~right:(d.Catalog.right.Catalog.source, entries `Right)
      in
      (* With IDs the mediator resolves them back to the ciphertexts it
         retained; without, the ciphertexts travelled with the hashes. *)
      let result_messages =
        List.map (fun (i, j) -> (m.left_payloads.(i), m.right_payloads.(j))) m.pairs
      in
      Link.deliver_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
        ~label:"result-messages"
        ~size:
          (List.fold_left
             (fun acc (a, c) -> acc + String.length a + String.length c)
             0 result_messages)
        (fun () -> List.map (fun (a, c) -> a ^ c) result_messages);

      (* Step 8: the client decrypts and combines the tuple sets. *)
      let decrypt_set label ct =
        Join_key.decode_tuple_set
          (Request.decrypt ~phase:"client-postprocess" ~party:Client client.Env.key label
             (Hybrid.of_wire ct))
      in
      let received = ref 0 in
      let result =
        Outcome.Builder.timed b ~party:"Client" "client-postprocess" (fun () ->
            Request.client_join request
              (List.map
                 (fun (ct1, ct2) ->
                   let tup1 = decrypt_set "Tup1" ct1 and tup2 = decrypt_set "Tup2" ct2 in
                   received := !received + (List.length tup1 * List.length tup2);
                   (tup1, tup2))
                 result_messages))
      in
      Outcome.Builder.client_sees b "result-messages-received" (List.length result_messages);
      (result, exact, !received))
