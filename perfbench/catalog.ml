(* Every metric the benchmark reports: name, unit, direction, and for
   the per-layer ones which end-to-end metric they should move and on
   which workload.  BENCHMARK.json's metric lists are this catalog
   ([bench.exe --describe] prints them). *)

type e2e = { e_name : string; e_unit : string; e_better : string; e_bound : float }

type layer = {
  l_name : string;
  l_unit : string;
  l_better : string;
  l_moves : string;  (** the end-to-end metric this layer should move *)
  l_on : string;  (** ... on this workload *)
}

let schemes = [ "das"; "commutative"; "pm" ]

let workloads =
  [
    ( "inproc-fresh",
      "in-process closed loops (one caller per vCPU) over das/commutative/pm, a fresh scenario \
       per session: all bigint/crypto/core, nothing shared, no net" );
    ( "serve-shared",
      "forked loopback cluster, 1 closed-loop Loadgen worker, small shared scenario: frames, mux \
       waits, scheduler, replica recomputation" );
    ( "serve-bulk",
      "2-shard loopback cluster, 1 worker, commutative over 1k rows: streamed chunks, credit \
       window, shard merge, bulk reads, high-water memory" );
  ]

(* The workloads BENCHMARK.json lists.  serve-bulk runs on demand
   (--workload serve-bulk, or all): its ~2 s sessions need a longer run
   than the benchmark's repeated-run budget leaves room for. *)
let benchmarked = [ "inproc-fresh"; "serve-shared" ]

let e2e =
  let m e_name e_unit e_better e_bound = { e_name; e_unit; e_better; e_bound } in
  [ m "setup_s" "s" "lower" 0.25; m "qps" "1/s" "higher" 0.25 ]
  @ List.map (fun s -> m (s ^ "_p50_ms") "ms" "lower" 0.25) schemes
  @ List.map (fun s -> m (s ^ "_tail_ms") "ms" "lower" 0.25) schemes
  @ [
      m "cpu_ms_per_session" "ms" "lower" 0.25;
      m "bytes_per_session" "B" "lower" 0.1;
      m "peak_rss_mb" "MiB" "lower" 0.2;
      m "served_frac" "ratio" "higher" 0.01;
    ]

let phases = function
  | "das" -> [ "request"; "source-encrypt"; "client-translate"; "mediator-server-query"; "client-postprocess" ]
  | "commutative" -> [ "request"; "source-encrypt"; "source-reencrypt"; "mediator-match"; "client-postprocess" ]
  | "pm" -> [ "request"; "source-polynomial"; "source-evaluate"; "client-postprocess" ]
  | _ -> []

let primitives = function
  | "das" -> [ "hash"; "hybrid-encrypt"; "hybrid-decrypt" ]
  | "commutative" ->
    [ "ideal-hash"; "commutative-encrypt"; "hybrid-encrypt"; "hybrid-decrypt" ]
  | "pm" ->
    [ "homomorphic-encrypt"; "homomorphic-decrypt"; "homomorphic-add"; "homomorphic-scalar"; "random-number" ]
  | _ -> []

let unit_costs =
  [
    "hybrid_encrypt"; "hybrid_decrypt"; "paillier_encrypt"; "paillier_decrypt"; "paillier_scalar";
    "paillier_add"; "commutative_apply"; "ideal_hash"; "hash"; "random";
  ]

(* Which party a driver phase belongs to, by the drivers' naming. *)
let phase_party phase =
  match String.index_opt phase '-' with
  | Some i -> (
    match String.sub phase 0 i with "source" -> "Source" | "client" -> "Client" | _ -> "Mediator")
  | None -> "Mediator"

let hwm_regions = [ "io.send"; "mux.parked"; "stream.pending"; "wire.stream" ]

let layers =
  let l l_name l_unit l_better l_moves l_on = { l_name; l_unit; l_better; l_moves; l_on } in
  let per_scheme f = List.concat_map f schemes in
  [
    l "bigint.mod_pow_group_us" "us" "lower" "pm_p50_ms" "inproc-fresh";
    l "bigint.mod_pow_paillier_us" "us" "lower" "pm_p50_ms" "inproc-fresh";
    l "bigint.alloc_mb_per_session" "MiB" "lower" "qps" "inproc-fresh";
    l "bigint.ctx_hit_ratio" "ratio" "higher" "qps" "serve-shared";
  ]
  @ List.map (fun c -> l ("crypto." ^ c ^ "_us") "us" "lower" "pm_p50_ms" "inproc-fresh") unit_costs
  @ [ l "codec.frame_roundtrip_us" "us" "lower" "commutative_p50_ms" "serve-shared" ]
  @ per_scheme (fun s ->
        List.map
          (fun p -> l (Printf.sprintf "%s.ops.%s" s p) "count" "lower" (s ^ "_p50_ms") "inproc-fresh")
          (primitives s)
        @ [ l (s ^ ".crypto_est_ms") "ms" "lower" (s ^ "_p50_ms") "inproc-fresh" ])
  @ per_scheme (fun s ->
        List.map
          (fun p -> l (Printf.sprintf "%s.phase.%s_ms" s p) "ms" "lower" (s ^ "_p50_ms") "inproc-fresh")
          (phases s)
        @ [ l (s ^ ".unattributed_ms") "ms" "lower" (s ^ "_p50_ms") "inproc-fresh" ])
  @ [
      l "das.superset_factor" "ratio" "lower" "das_p50_ms" "inproc-fresh";
      l "pm.wellformed_ratio" "ratio" "higher" "pm_p50_ms" "inproc-fresh";
    ]
  @ per_scheme (fun s ->
        [
          l (s ^ ".messages") "count" "lower" "bytes_per_session" "serve-shared";
          l (s ^ ".transcript_bytes") "B" "lower" "bytes_per_session" "serve-shared";
        ])
  @ [
      l "mediation.epochs_per_session" "count" "lower" "served_frac" "serve-shared";
      l "mediation.connect_retries" "count" "lower" "served_frac" "serve-shared";
      l "net.frames_per_session" "count" "lower" "commutative_p50_ms" "serve-shared";
      l "net.overhead_ratio" "ratio" "lower" "commutative_p50_ms" "serve-shared";
      l "net.mux_rtt_us" "us" "lower" "commutative_p50_ms" "serve-shared";
      l "net.ping_rtt_us" "us" "lower" "commutative_p50_ms" "serve-shared";
    ]
  @ per_scheme (fun s -> [ l (s ^ ".net_residual_ms") "ms" "lower" (s ^ "_p50_ms") "serve-shared" ])
  @ [
      l "net.sched_busy_ms_per_session" "ms" "lower" "commutative_tail_ms" "serve-shared";
      l "net.sched_utilization" "ratio" "higher" "qps" "serve-shared";
      l "net.queue_wait_ms" "ms" "lower" "commutative_tail_ms" "serve-shared";
      l "net.streamed_rows_per_session" "count" "lower" "commutative_p50_ms" "serve-bulk";
      l "net.streamed_bytes_per_session" "B" "lower" "commutative_p50_ms" "serve-bulk";
    ]
  @ List.map (fun r -> l (Printf.sprintf "net.hwm.%s_kb" r) "KiB" "lower" "peak_rss_mb" "serve-bulk") hwm_regions
  @ [
      l "proc.client_cpu_ms_per_session" "ms" "lower" "cpu_ms_per_session" "serve-shared";
      l "proc.mediator_cpu_ms_per_session" "ms" "lower" "cpu_ms_per_session" "serve-shared";
      l "proc.source_cpu_ms_per_session" "ms" "lower" "cpu_ms_per_session" "serve-shared";
      l "proc.replica_factor" "ratio" "lower" "qps" "serve-bulk";
      l "host.slowdown" "ratio" "lower" "none (every time metric is divided by it)" "all";
      l "obs.trace_overhead_pct" "%" "lower" "none (traced pass only)" "all";
      l "obs.spans_per_session" "count" "lower" "none (traced pass only)" "all";
    ]

let unit_of name =
  match List.find_opt (fun e -> e.e_name = name) e2e with
  | Some e -> e.e_unit
  | None -> (
    match List.find_opt (fun l -> l.l_name = name) layers with Some l -> l.l_unit | None -> "")

(* The metric lists of BENCHMARK.json. *)
let describe () =
  let module J = Secmed_obs.Json in
  J.Obj
    [
      ( "workloads",
        J.List
          (List.filter_map
             (fun (n, why) ->
               if List.mem n benchmarked then Some (J.Obj [ ("name", J.Str n); ("why", J.Str why) ])
               else None)
             workloads) );
      ( "end_to_end",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [ ("name", J.Str e.e_name); ("unit", J.Str e.e_unit); ("better", J.Str e.e_better);
                   ("bound", J.Float e.e_bound) ])
             e2e) );
      ( "per_layer",
        J.List
          (List.map
             (fun l -> J.Obj [ ("name", J.Str l.l_name); ("unit", J.Str l.l_unit); ("better", J.Str l.l_better) ])
             layers) );
    ]
