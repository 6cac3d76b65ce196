(* Reproduction of the paper's evaluation artifacts (see DESIGN.md §4):
   Tables 1 and 2, Figures 1 and 2, and the Section 6 performance
   discussion turned into measured quantities. *)

open Secmed_relalg
open Secmed_mediation
open Secmed_core

(* Benchmark security parameters (reduced moduli; see DESIGN.md §5). *)
let bench_params = { Env.group_bits = 256; paillier_bits = 512 }

(* The params block of the BENCH_<suite>.json records measured under
   them. *)
let record_params =
  [
    ("group_bits", Secmed_obs.Json.Int bench_params.Env.group_bits);
    ("paillier_bits", Secmed_obs.Json.Int bench_params.Env.paillier_bits);
  ]

let reference_spec =
  {
    Workload.default with
    rows_left = 32;
    rows_right = 32;
    distinct_left = 16;
    distinct_right = 16;
    overlap = 8;
    extra_attrs = 2;
    seed = 2007;
  }

let scenario ?(spec = reference_spec) () = Workload.scenario ~params:bench_params spec

let spec_for_domain ?(rows_per_value = 2) size =
  {
    Workload.default with
    rows_left = rows_per_value * size;
    rows_right = rows_per_value * size;
    distinct_left = size;
    distinct_right = size;
    overlap = size / 2;
    extra_attrs = 2;
    seed = 2007;
  }

let run_reference_outcomes () =
  let env, client, query = scenario () in
  List.map (fun s -> Protocol.run_exn s env client ~query) Protocol.paper_schemes

(* ------------------------------------------------------------------ *)
(* T1 — Table 1: extra information disclosed to client and mediator. *)

let table1 () =
  Bench_util.heading "Table 1 — extra information disclosed to client and mediator";
  let outcomes = run_reference_outcomes () in
  print_string (Leakage.table1 outcomes);
  print_newline ();
  let left, right = Workload.generate reference_spec in
  let ground_truth = Ground_truth.compute left right ~join_attr:"a_join" in
  Format.printf "Ground truth: %a@.@." Ground_truth.pp ground_truth;
  print_endline "Machine-checked claims (paper's Table 1 rows, instantiated):";
  List.iter
    (fun o ->
      Printf.printf "\n%s:\n" o.Outcome.scheme;
      let claims = Leakage.verify o ~ground_truth in
      Format.printf "%a" Leakage.pp_claims claims;
      if not (Leakage.all_hold claims) then print_endline ">>> SHAPE VIOLATED <<<")
    outcomes

(* ------------------------------------------------------------------ *)
(* T2 — Table 2: applied cryptographic primitives. *)

let table2 () =
  Bench_util.heading "Table 2 — applied cryptographic primitives (measured invocation counts)";
  let outcomes = run_reference_outcomes () in
  print_string (Leakage.table2 outcomes);
  print_newline ();
  print_endline "Paper's claims: DAS uses a (collision-free) hashfunction; the commutative";
  print_endline "approach uses an ideal hash + commutative encryption; PM uses homomorphic";
  print_endline "encryption + random numbers.  Hybrid encryption is shared infrastructure.";
  let ok =
    List.for_all2
      (fun o expected ->
        let count p = Option.value ~default:0 (List.assoc_opt p o.Outcome.counters) in
        List.for_all (fun p -> count p > 0) (fst expected)
        && List.for_all (fun p -> count p = 0) (snd expected))
      outcomes
      [
        ( [ Secmed_crypto.Counters.Hash ],
          [ Secmed_crypto.Counters.Commutative_encrypt; Secmed_crypto.Counters.Homomorphic_encrypt ] );
        ( [ Secmed_crypto.Counters.Ideal_hash; Secmed_crypto.Counters.Commutative_encrypt ],
          [ Secmed_crypto.Counters.Homomorphic_encrypt ] );
        ( [ Secmed_crypto.Counters.Homomorphic_encrypt; Secmed_crypto.Counters.Random_number ],
          [ Secmed_crypto.Counters.Commutative_encrypt ] );
      ]
  in
  Printf.printf "\nShape check (primitive sets match the paper's Table 2): %s\n"
    (if ok then "OK" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1: the basic mediated information system. *)

let figure1 () =
  Bench_util.heading
    "Figure 1 — basic mediated system (message flow of an actual plain-pipeline run)";
  let env, client, query = scenario ~spec:{ reference_spec with rows_left = 16; rows_right = 16 } () in
  let o = Protocol.run_exn Protocol.Plain env client ~query in
  print_endline (Transcript.flow_diagram o.Outcome.transcript);
  print_endline (Transcript.summary o.Outcome.transcript)

(* ------------------------------------------------------------------ *)
(* F2 — Figure 2: the credential-based MMM system. *)

let figure2 () =
  Bench_util.heading
    "Figure 2 — credential-based MMM (preparatory phase + DAS delivery, from a real run)";
  (* Preparatory phase: the client requests credentials from the CA
     (properties + public key in, credential out). *)
  let env, client, query = scenario ~spec:{ reference_spec with rows_left = 8; rows_right = 8;
                                            distinct_left = 4; distinct_right = 4; overlap = 2 } () in
  let preparatory = Transcript.create () in
  let credential_bytes = Request.credential_size client.Env.credentials in
  Transcript.record preparatory ~sender:Client ~receiver:Authority ~label:"p,id,k_pub"
    ~size:(64 + credential_bytes / 2);
  Transcript.record preparatory ~sender:Authority ~receiver:Client ~label:"credential(p,k_pub)"
    ~size:credential_bytes;
  print_endline "Preparatory phase (certification authority):";
  print_endline (Transcript.flow_diagram preparatory);
  let o = Protocol.run_exn (Protocol.Das (Das_partition.Equi_depth 2, Das.Pair_index)) env client ~query in
  print_endline "Request + delivery phases (DAS, client setting):";
  print_endline (Transcript.flow_diagram o.Outcome.transcript);
  print_endline (Transcript.summary o.Outcome.transcript)

(* ------------------------------------------------------------------ *)
(* P1 — Section 6: interaction counts per party. *)

let rounds () =
  Bench_util.heading "P1 — interactions with the mediator (messages sent per party)";
  let env, client, query = scenario () in
  let schemes = Protocol.all_schemes in
  let rows =
    List.map
      (fun scheme ->
        let o = Protocol.run_exn scheme env client ~query in
        let t = o.Outcome.transcript in
        [
          Protocol.scheme_name scheme;
          string_of_int (Transcript.sends_by t Transcript.Client);
          string_of_int (Transcript.sends_by t (Transcript.Source 1));
          string_of_int (Transcript.sends_by t (Transcript.Source 2));
          string_of_int (Transcript.sends_by t Transcript.Mediator);
          string_of_int (Transcript.rounds t Transcript.Client Transcript.Mediator);
        ])
      schemes
  in
  Bench_util.print_table
    ~headers:[ "scheme"; "client sends"; "S1 sends"; "S2 sends"; "mediator sends";
               "client<->mediator rounds" ]
    rows;
  print_endline "Paper's claims: DAS — client interacts twice, sources only once (\"most";
  print_endline "convenient\"); commutative & PM — sources interact twice with the mediator."

(* ------------------------------------------------------------------ *)
(* P2 — Section 6: wall-clock of the delivery phase. *)

let perf ~sizes () =
  Bench_util.heading "P2 — end-to-end wall clock vs |domactive(A_join)| (median of 3, ms)";
  let schemes = Protocol.all_schemes in
  let rows =
    List.map
      (fun size ->
        let env, client, query = scenario ~spec:(spec_for_domain size) () in
        string_of_int size
        :: List.map
             (fun scheme ->
               let t = Bench_util.time_median ~runs:3 (fun () ->
                   Protocol.run_exn scheme env client ~query)
               in
               Bench_util.fmt_ms t)
             schemes)
      sizes
  in
  Bench_util.print_table
    ~headers:("|domactive|" :: List.map Protocol.scheme_name schemes)
    rows;
  (* Shape check: PM is the most expensive protocol; commutative beats PM. *)
  let largest = List.nth sizes (List.length sizes - 1) in
  let env, client, query = scenario ~spec:(spec_for_domain largest) () in
  let time scheme =
    Bench_util.time_median ~runs:3 (fun () -> Protocol.run_exn scheme env client ~query)
  in
  let t_comm = time (Protocol.Commutative { use_ids = false }) in
  let t_pm = time (Protocol.Private_matching Pm_join.Session_keys) in
  Printf.printf
    "\nShape check (commutative faster than PM at |dom|=%d, paper §6): %s (%.1f vs %.1f ms)\n"
    largest
    (if t_comm < t_pm then "OK" else "VIOLATED")
    (t_comm *. 1000.0) (t_pm *. 1000.0);
  (* Per-phase breakdown at the largest size. *)
  Bench_util.subheading (Printf.sprintf "phase breakdown at |domactive| = %d (ms)" largest);
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query in
      Printf.printf "%-22s " (Protocol.scheme_name scheme);
      List.iter
        (fun (phase, seconds) -> Printf.printf "%s=%.1f  " phase (seconds *. 1000.0))
        o.Outcome.timings;
      print_newline ())
    Protocol.paper_schemes

(* ------------------------------------------------------------------ *)
(* P3 — Section 6: communication volume. *)

let comm ~sizes () =
  Bench_util.heading "P3 — communication volume vs |domactive(A_join)| (total wire bytes)";
  let schemes = Protocol.all_schemes in
  let rows =
    List.map
      (fun size ->
        let env, client, query = scenario ~spec:(spec_for_domain size) () in
        string_of_int size
        :: List.map
             (fun scheme ->
               let o = Protocol.run_exn scheme env client ~query in
               Bench_util.fmt_bytes (Transcript.total_bytes o.Outcome.transcript))
             schemes)
      sizes
  in
  Bench_util.print_table
    ~headers:("|domactive|" :: List.map Protocol.scheme_name schemes)
    rows;
  (* Per-link breakdown at the largest size, for the paper's protocols. *)
  let largest = List.nth sizes (List.length sizes - 1) in
  let env, client, query = scenario ~spec:(spec_for_domain largest) () in
  Bench_util.subheading (Printf.sprintf "per-link bytes at |domactive| = %d" largest);
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query in
      Printf.printf "%s:\n%s\n" (Protocol.scheme_name scheme)
        (Transcript.summary o.Outcome.transcript))
    Protocol.paper_schemes

(* ------------------------------------------------------------------ *)
(* P4 — Section 6: client post-processing burden. *)

let postproc () =
  Bench_util.heading "P4 — client-side burden: received data and post-processing time";
  let env, client, query = scenario () in
  let rows =
    List.map
      (fun scheme ->
        let o = Protocol.run_exn scheme env client ~query in
        let exact = Relation.cardinality o.Outcome.exact in
        let postprocess =
          Option.value ~default:0.0 (List.assoc_opt "client-postprocess" o.Outcome.timings)
          +. Option.value ~default:0.0 (List.assoc_opt "client-translate" o.Outcome.timings)
        in
        [
          Protocol.scheme_name scheme;
          string_of_int o.Outcome.client_received_tuples;
          string_of_int exact;
          Printf.sprintf "%.2fx" (Outcome.superset_factor o);
          Bench_util.fmt_ms postprocess;
        ])
      Protocol.all_schemes
  in
  Bench_util.print_table
    ~headers:[ "scheme"; "pairs received"; "exact join"; "superset factor"; "client time (ms)" ]
    rows;
  print_endline "Paper's claims: the DAS client \"receives more data records than necessary\"";
  print_endline "and must run the client query; the commutative client receives the exact";
  print_endline "result; the PM client receives all encrypted values but decrypts only matches."

(* ------------------------------------------------------------------ *)
(* P6 — security-parameter sweep: how the protocols scale with modulus
   size (the paper's crypto is parameterized but unevaluated). *)

let security_sweep () =
  Bench_util.heading "P6 — cost of security parameters (|domactive| = 8, median of 3, ms)";
  let spec = spec_for_domain 8 in
  Bench_util.subheading "group size (DAS / commutative: hybrid + commutative encryption)";
  let rows =
    List.map
      (fun group_bits ->
        let params = { Env.group_bits; paillier_bits = 512 } in
        let env, client, query = Workload.scenario ~params spec in
        let time scheme =
          Bench_util.fmt_ms
            (Bench_util.time_median ~runs:3 (fun () -> Protocol.run_exn scheme env client ~query))
        in
        [
          string_of_int group_bits;
          time (Protocol.Das (Das_partition.Equi_depth 4, Das.Pair_index));
          time (Protocol.Commutative { use_ids = false });
        ])
      [ 160; 256; 384; 512 ]
  in
  Bench_util.print_table ~headers:[ "group bits"; "das (ms)"; "commutative (ms)" ] rows;
  Bench_util.subheading "Paillier modulus (PM protocol)";
  let rows =
    List.map
      (fun paillier_bits ->
        let params = { Env.group_bits = 256; paillier_bits } in
        let env, client, query = Workload.scenario ~params spec in
        let t =
          Bench_util.time_median ~runs:3 (fun () ->
              Protocol.run_exn (Protocol.Private_matching Pm_join.Session_keys) env client ~query)
        in
        [ string_of_int paillier_bits; Bench_util.fmt_ms t ])
      [ 384; 512; 768; 1024 ]
  in
  Bench_util.print_table ~headers:[ "paillier bits"; "pm (ms)" ] rows;
  print_endline "Exponentiation cost grows roughly cubically with the modulus size; the";
  print_endline "protocols' relative ordering (commutative < das < pm) is stable across it."

(* ------------------------------------------------------------------ *)
(* P7 — skewed join-value distributions. *)

let skew_sweep () =
  Bench_util.heading
    "P7 — join-value skew (Zipf): result blow-up and protocol behaviour";
  let rows =
    List.map
      (fun skew ->
        let spec =
          { (spec_for_domain ~rows_per_value:4 16) with Workload.skew; seed = 2024 }
        in
        let env, client, query = scenario ~spec () in
        let left, right = Workload.generate spec in
        let g = Ground_truth.compute left right ~join_attr:"a_join" in
        let time scheme =
          Bench_util.fmt_ms
            (Bench_util.time_median ~runs:3 (fun () -> Protocol.run_exn scheme env client ~query))
        in
        [
          Printf.sprintf "%.1f" skew;
          string_of_int g.Ground_truth.exact_join_pairs;
          time (Protocol.Das (Das_partition.Equi_depth 4, Das.Pair_index));
          time (Protocol.Commutative { use_ids = false });
          time (Protocol.Private_matching Pm_join.Session_keys);
        ])
      [ 0.0; 0.8; 1.5 ]
  in
  Bench_util.print_table
    ~headers:[ "zipf skew"; "join pairs"; "das (ms)"; "commutative (ms)"; "pm (ms)" ]
    rows;
  print_endline "Skew concentrates rows on few hot keys: the join result (and hence the";
  print_endline "client-side work) grows, while the per-key protocol traffic is unchanged —";
  print_endline "the protocols' costs are driven by |domactive|, not by row counts."

(* ------------------------------------------------------------------ *)
(* E1 — successive joins over a source chain (Section 8 extension). *)

let chain_env n_sources =
  let prng = Secmed_crypto.Prng.of_int_seed 77 in
  let relations =
    List.init n_sources (fun i ->
        let key_in = Printf.sprintf "k%d" i and key_out = Printf.sprintf "k%d" (i + 1) in
        let attrs =
          if i = n_sources - 1 then [ (key_in, Value.Tint) ]
          else [ (key_in, Value.Tint); (key_out, Value.Tint) ]
        in
        let schema = Schema.of_list attrs in
        let rows =
          List.init 12 (fun _ ->
              List.map (fun _ -> Value.Int (Secmed_crypto.Prng.uniform_int prng 8)) attrs)
        in
        (Printf.sprintf "T%d" i, Relation.of_rows schema rows))
  in
  let entry i (name, rel) =
    { Catalog.relation = name; source = i + 1; schema = Relation.schema rel;
      source_relation = name }
  in
  let env =
    Env.make ~params:bench_params ~seed:77
      ~catalog:(Catalog.make (List.mapi entry relations))
      ~sources:
        (List.mapi
           (fun i (name, rel) ->
             { Env.source_id = i + 1; relations = [ (name, rel) ];
               policy = Policy.open_policy; advertised = [] })
           relations)
      ()
  in
  let query =
    "select * from T0 "
    ^ String.concat " "
        (List.init (n_sources - 1) (fun i -> Printf.sprintf "natural join T%d" (i + 1)))
  in
  (env, query)

let chain () =
  Bench_util.heading
    "E1 — successive joins (mediator-hierarchy extension): 2/3/4-source chains";
  let rows =
    List.concat_map
      (fun n_sources ->
        let env, query = chain_env n_sources in
        let client = Env.make_client env ~identity:"chain" ~properties:[ [] ] in
        List.map
          (fun scheme ->
            let t0 = Unix.gettimeofday () in
            let chain = Multi_join.run ~scheme env client ~query in
            let elapsed = Unix.gettimeofday () -. t0 in
            [
              string_of_int n_sources;
              Protocol.scheme_name scheme;
              string_of_int (List.length chain.Multi_join.stages);
              string_of_int (Relation.cardinality chain.Multi_join.result);
              string_of_bool (Multi_join.correct chain);
              string_of_int chain.Multi_join.total_messages;
              Bench_util.fmt_bytes chain.Multi_join.total_bytes;
              Bench_util.fmt_ms elapsed;
            ])
          Protocol.paper_schemes)
      [ 2; 3; 4 ]
  in
  Bench_util.print_checked_table
    ~headers:[ "sources"; "scheme"; "rounds"; "result"; "correct"; "msgs"; "bytes"; "time (ms)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — set operations (Section 8 extension): measured disclosure. *)

let setops_experiment () =
  Bench_util.heading "E2 — secure set operations: correctness and per-party traffic";
  (* Whole-tuple operations need layout-identical relations: keep only the
     join column. *)
  let spec = { (spec_for_domain 16) with Workload.extra_attrs = 0 } in
  let left, right = Workload.generate spec in
  let env =
    Env.two_source ~params:bench_params ~seed:spec.Workload.seed ~left:("L", left)
      ~right:("R", right) ()
  in
  let client = Env.make_client env ~identity:"ops" ~properties:[ [] ] in
  let rows =
    List.map
      (fun (op, on) ->
        let o = Set_ops.run ?on env client op ~left:"L" ~right:"R" in
        let t = o.Outcome.transcript in
        [
          Set_ops.op_name op;
          string_of_int (Relation.cardinality o.Outcome.result);
          string_of_bool (Outcome.correct o);
          Bench_util.fmt_bytes (Transcript.bytes_sent_by t (Transcript.Source 1));
          Bench_util.fmt_bytes (Transcript.bytes_sent_by t (Transcript.Source 2));
          Bench_util.fmt_bytes (Transcript.total_bytes t);
        ])
      [ (Set_ops.Intersection, None); (Set_ops.Difference, None);
        (Set_ops.Semi_join, Some [ "a_join" ]) ]
  in
  Bench_util.print_checked_table
    ~headers:[ "operation"; "result"; "correct"; "S1 bytes"; "S2 bytes"; "total" ]
    rows;
  print_endline "The right source transmits only fixed-size key hashes in every operation."

(* ------------------------------------------------------------------ *)
(* E3 — encrypted aggregation vs join-then-aggregate. *)

let aggregation () =
  Bench_util.heading
    "E3 — aggregation queries: dedicated protocol vs join + client-side aggregation";
  let spec = spec_for_domain ~rows_per_value:4 16 in
  let env, client, _ = scenario ~spec () in
  let grouped_query =
    "select a_join, count(*) as n, sum(l0) as total from R1 natural join R2 group by a_join"
  in
  let scalar_query = "select count(*) as n, sum(r0) as total from R1 natural join R2" in
  let run_case label thunk =
    let t0 = Unix.gettimeofday () in
    let o : Outcome.t = thunk () in
    let elapsed = Unix.gettimeofday () -. t0 in
    [
      label;
      string_of_int (Relation.cardinality o.Outcome.result);
      string_of_bool (Outcome.correct o);
      string_of_int o.Outcome.client_received_tuples;
      Bench_util.fmt_bytes (Transcript.total_bytes o.Outcome.transcript);
      Bench_util.fmt_ms elapsed;
    ]
  in
  let rows =
    [
      run_case "join(commutative) + aggregate" (fun () ->
          Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client
            ~query:grouped_query);
      run_case "aggregate protocol (grouped)" (fun () ->
          Aggregate_join.run env client ~query:grouped_query);
      run_case "join(commutative) + aggregate [scalar]" (fun () ->
          Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client
            ~query:scalar_query);
      run_case "aggregate protocol (scalar)" (fun () ->
          Aggregate_join.run env client ~query:scalar_query);
    ]
  in
  (* The homomorphic strategy needs duplicate-free left keys. *)
  let unique_spec = { (spec_for_domain ~rows_per_value:1 16) with Workload.rows_right = 64 } in
  let env_u, client_u, _ = scenario ~spec:unique_spec () in
  let rows =
    rows
    @ [
        run_case "aggregate protocol (homomorphic)" (fun () ->
            Aggregate_join.run ~strategy:Aggregate_join.Homomorphic env_u client_u
              ~query:scalar_query);
      ]
  in
  Bench_util.print_checked_table
    ~headers:[ "pipeline"; "result rows"; "correct"; "pairs/bundles to client"; "bytes"; "time (ms)" ]
    rows;
  print_endline "The dedicated protocol ships per-key statistics instead of tuples; the";
  print_endline "homomorphic strategy reduces the client's view to one ciphertext per aggregate."

(* ------------------------------------------------------------------ *)
(* E4 — selection queries over one encrypted relation (the original DAS
   query class). *)

let selection () =
  Bench_util.heading
    "E4 — DAS selection over one encrypted relation: selectivity vs partitions";
  let rows = 256 in
  let inventory =
    Relation.of_rows
      (Schema.of_list [ ("sku", Value.Tint); ("price", Value.Tint) ])
      (List.init rows (fun i -> [ Value.Int i; Value.Int (7 * i mod 1000) ]))
  in
  let dummy = Relation.of_rows (Schema.of_list [ ("x", Value.Tint) ]) [ [ Value.Int 0 ] ] in
  let env =
    Env.two_source ~params:bench_params ~seed:3 ~left:("Inventory", inventory)
      ~right:("Dummy", dummy) ()
  in
  let client = Env.make_client env ~identity:"sel" ~properties:[ [] ] in
  let table_rows =
    List.concat_map
      (fun threshold ->
        let query = Printf.sprintf "select * from Inventory where price < %d" threshold in
        List.map
          (fun k ->
            let strategy =
              if k >= rows then Das_partition.Singleton else Das_partition.Equi_depth k
            in
            let o = Select_query.run ~strategy env client ~query in
            let exact = Relation.cardinality o.Outcome.exact in
            [
              string_of_int threshold;
              Das_partition.strategy_name strategy;
              string_of_int exact;
              string_of_int o.Outcome.client_received_tuples;
              Printf.sprintf "%.2fx"
                (float_of_int o.Outcome.client_received_tuples
                /. float_of_int (Stdlib.max 1 exact));
              string_of_bool (Outcome.correct o);
            ])
          [ 4; 16; 64 ])
      [ 100; 500 ]
  in
  Bench_util.print_checked_table
    ~headers:[ "price <"; "partitioning"; "exact"; "returned"; "superset"; "correct" ]
    table_rows;
  print_endline "Finer partitioning tightens the superset the mediator returns, at the";
  print_endline "cost of a more revealing index — the same trade-off as P5, now for the";
  print_endline "selection workload of the original DAS papers."

(* ------------------------------------------------------------------ *)
(* P5 — the DAS partition-granularity trade-off (Section 3/6, refs [15,8]). *)

let das_tradeoff () =
  Bench_util.heading
    "P5 — DAS trade-off: partition granularity vs superset size vs index disclosure";
  let spec = spec_for_domain 16 in
  let env, client, query = scenario ~spec () in
  let left, _ = Workload.generate spec in
  let column = Relation.column left "a_join" in
  let rows =
    List.map
      (fun k ->
        let strategy =
          if k >= spec.Workload.distinct_left then Das_partition.Singleton
          else Das_partition.Equi_depth k
        in
        let o = Protocol.run_exn (Protocol.Das (strategy, Das.Pair_index)) env client ~query in
        let table =
          Das_partition.build strategy ~relation:"R1" ~attr:"a_join"
            (Relation.active_domain left "a_join")
        in
        [
          Das_partition.strategy_name strategy;
          string_of_int (Das_partition.partition_count table);
          string_of_int o.Outcome.client_received_tuples;
          Printf.sprintf "%.2fx" (Outcome.superset_factor o);
          Printf.sprintf "%.2f" (Das_partition.disclosure_bits table column);
          (if Outcome.correct o then "yes" else "NO");
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Bench_util.print_table
    ~headers:
      [ "partitioning"; "partitions"; "pairs received"; "superset"; "index leakage (bits)";
        "correct" ]
    rows;
  print_endline "Expected shape (paper §3: \"small partitions ... are more efficient ... but";
  print_endline "can leak confidential information\"): superset factor falls and index";
  print_endline "disclosure rises monotonically as partitions get finer."
