(* BENCH_serve.json: sustained-load serving under concurrency — a
   deterministic {!Secmed_net.Loadgen} fleet against a forked loopback
   cluster at 1/8/64/256 concurrent sessions (--smoke: 1/2/4/8), each
   level measured clean and under chaos (a times-bounded corrupt proxy
   on source 1's link plus a retry budget).  Each level records
   throughput, outcome counts (the typed [Refused] column is the
   mediator's admission backpressure), and latency percentiles overall
   and per scheme; a failover soak and the cost of tracing ride along.
   The soak must record no invariant violations. *)

open Secmed_mediation
open Secmed_core
open Secmed_net
module Metrics = Secmed_obs.Metrics

let small_spec =
  {
    Workload.default with
    rows_left = 12;
    rows_right = 12;
    distinct_left = 6;
    distinct_right = 6;
    overlap = 3;
    extra_attrs = 1;
    seed = 2007;
  }

(* Bounded chaos: two corrupted frames, each of which severs one pooled
   mediator->source connection and so faults *every* session bound to
   that slot at once.  The retry budget in the query's fault spec is
   sized for that amplification — a session can be hit by both events
   plus a redial race and still recover. *)
let chaos_plan () =
  match Fault.of_spec "corrupt:mediator->source1:times=2" with
  | Ok plan -> plan
  | Error e -> failwith ("serve_json: bad chaos spec: " ^ e)

let chaos_fault_spec = "retries=4"

(* The sweep's chaos rows measure sever → retry → redial recovery, so
   the source breakers must stay closed: one corrupted frame severs a
   pooled mediator->source connection and fails every session bound to
   that slot at once, instantly tripping a rate breaker — and a
   short-circuit is terminal for the whole query (by design: an open
   breaker refuses up front), so any session whose ~50ms first backoff
   lands inside the cooldown is stranded with budget to spare.  A
   threshold above 1.0 can never be reached, which disables tripping
   without touching the rest of the policy; the breaker's trip and
   half-open behavior is pinned by its own tests. *)
let bench_policy =
  {
    Resilience.default_policy with
    breaker_config = { Resilience.default_breaker with failure_threshold = 2.0 };
  }

let ms h q = Metrics.quantile h q *. 1000.

let level_rows ~case ~sessions_per_worker report =
  let count k = float_of_int (Loadgen.count k report) in
  let elapsed = report.Loadgen.elapsed in
  Bench_util.rows case
    [
      ("sessions_per_worker", "count", float_of_int sessions_per_worker);
      ("sessions", "count", float_of_int (List.length report.Loadgen.records));
      ("seconds", "s", elapsed);
      ("qps", "1/s", Loadgen.qps report);
      ("served", "count", count Loadgen.Served);
      ("degraded", "count", count Loadgen.Degraded);
      ("unserved", "count", count Loadgen.Unserved);
      ("refused", "count", count Loadgen.Refused);
      ("failed", "count", count Loadgen.Failed);
      ("p50_ms", "ms", ms report.Loadgen.latency 0.5);
      ("p95_ms", "ms", ms report.Loadgen.latency 0.95);
      ("p99_ms", "ms", ms report.Loadgen.latency 0.99);
    ]
  @ List.concat_map
      (fun (scheme, h) ->
        let sessions = Metrics.histogram_count h in
        Bench_util.rows
          (Printf.sprintf "%s scheme=%s" case scheme)
          [
            ("sessions", "count", float_of_int sessions);
            ("qps", "1/s", if elapsed <= 0. then 0. else float_of_int sessions /. elapsed);
            ("p50_ms", "ms", ms h 0.5);
            ("p95_ms", "ms", ms h 0.95);
            ("p99_ms", "ms", ms h 0.99);
          ])
      report.Loadgen.per_scheme

let run_level ?(trace = false) ~mode ~concurrency ~sessions_per_worker () =
  let chaos, fault_spec =
    match mode with
    | "chaos" -> ([ (1, chaos_plan ()) ], chaos_fault_spec)
    | _ -> ([], "")
  in
  (* A per-operation timeout scaled to the offered concurrency: at
     64-256 concurrent drivers the runtime is saturated and frame
     exchanges legitimately take tens of seconds — the sweep measures
     queueing delay, and must not let the io_timeout misread saturation
     as link faults (which retry, degrade, and amplify the very
     overload being measured). *)
  let io_timeout = Float.max 60. (0.75 *. float_of_int concurrency) in
  Loopback.with_cluster ~params:Experiments.bench_params ~policy:bench_policy
    ~spec:small_spec ~chaos ~max_sessions:concurrency ~workers:concurrency ~io_timeout
  @@ fun c ->
  let config =
    {
      Loadgen.default_config with
      workers = concurrency;
      sessions_per_worker;
      (* Workers stay systhreads in the bench: the harness forks a fresh
         cluster per level, and OCaml forbids Unix.fork once any domain
         has been spawned. *)
      domains = 1;
      seed = Printf.sprintf "serve-%s-%d" mode concurrency;
      fault_spec;
      io_timeout;
      trace;
    }
  in
  let report = Loadgen.run config (Loopback.target c) in
  Printf.printf "  %-5s c=%-3d %s%!" mode concurrency (Loadgen.render report);
  report

(* The cost of observing: the same clean closed-loop level twice, spans
   off vs spans on (collectors in every process, batches shipped and
   forwarded).  Separate clusters so the off run carries no residue. *)
let run_tracing_overhead ~concurrency ~sessions_per_worker =
  Printf.printf "  tracing overhead at c=%d\n%!" concurrency;
  let level trace =
    let case =
      Printf.sprintf "tracing=%s clean concurrency=%d" (if trace then "on" else "off")
        concurrency
    in
    let report = run_level ~trace ~mode:"clean" ~concurrency ~sessions_per_worker () in
    (Loadgen.qps report, level_rows ~case ~sessions_per_worker report)
  in
  let qps_off, off = level false in
  let qps_on, on = level true in
  Bench_util.rows
    (Printf.sprintf "tracing_overhead concurrency=%d" concurrency)
    [
      ("sessions_per_worker", "count", float_of_int sessions_per_worker);
      ("qps_off", "1/s", qps_off);
      ("qps_on", "1/s", qps_on);
      ("overhead_pct", "%", if qps_on <= 0. then 0. else 100. *. ((qps_off /. qps_on) -. 1.));
    ]
  @ off @ on

(* The failover row: a seeded chaos soak (process SIGKILLs + a mediator
   drain-restart under load, every invariant checked) distilled into
   availability numbers.  Runs first: Soak.run forks its supervisor on
   entry, and the cleanest fork is one taken before this process has
   spawned any fleet thread. *)
let run_failover ~smoke =
  let cfg =
    {
      Secmed_net.Soak.default_config with
      params = Some Experiments.bench_params;
      spec = small_spec;
      workers = 4;
      sessions_per_worker = (if smoke then 6 else 12);
      standbys = 1;
      kills = 4;
      drains = 1;
      seed = "serve-failover";
      rate = (if smoke then 12. else 10.);
      verify = true;
    }
  in
  Printf.printf "  failover soak: %d kills + %d drains over %d sessions\n%!" cfg.kills
    cfg.drains
    (cfg.workers * cfg.sessions_per_worker);
  let report = Soak.run cfg in
  Printf.printf "%s%!" (Soak.render report);
  Bench_util.rows "failover"
    [
      ("availability_pct", "%", report.Soak.sk_availability_pct);
      ("kill_window_p99_ms", "ms", report.Soak.sk_kill_window_p99_ms);
      ("failover_latency_s", "s", report.Soak.sk_failover_latency_s);
      ("kills", "count", float_of_int (List.length report.Soak.sk_kills));
      ("drains", "count", float_of_int (List.length report.Soak.sk_drain_exits));
      ("sessions", "count", float_of_int (List.length report.Soak.sk_load.Loadgen.records));
      ("failed", "count", float_of_int (Loadgen.count Loadgen.Failed report.Soak.sk_load));
      ("transitions", "count", float_of_int (List.length report.Soak.sk_transitions));
      ("violations", "count", float_of_int (List.length report.Soak.sk_violations));
    ]

let write ?(smoke = false) () =
  let levels = if smoke then [ 1; 2; 4; 8 ] else [ 1; 8; 64; 256 ] in
  let sessions_per_worker = 2 in
  Printf.printf "json-serve: loadgen sweep at concurrency %s\n%!"
    (String.concat "/" (List.map string_of_int levels));
  let failover = run_failover ~smoke in
  let sweep =
    List.concat_map
      (fun concurrency ->
        List.concat_map
          (fun mode ->
            let report = run_level ~mode ~concurrency ~sessions_per_worker () in
            level_rows
              ~case:(Printf.sprintf "%s concurrency=%d" mode concurrency)
              ~sessions_per_worker report)
          [ "clean"; "chaos" ])
      levels
  in
  let overhead =
    run_tracing_overhead ~concurrency:(if smoke then 8 else 64) ~sessions_per_worker
  in
  let rows = sweep @ failover @ overhead in
  Bench_util.write_record ~suite:"serve"
    ~params:(Experiments.record_params @ [ ("smoke", Secmed_obs.Json.Bool smoke) ])
    rows;
  Bench_util.require ~suite:"serve" rows
    [ ("violations", 0., "the failover soak recorded invariant violations") ]
