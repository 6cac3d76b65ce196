(* The repository benchmark.

     bench.exe --workload <inproc-fresh|serve-shared|serve-bulk>
               --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 it measures the end-to-end metrics of one workload in
   an untraced pass; with --trace 1 it runs an untraced half, then a
   traced half, and reports the per-layer metrics (the difference
   between the halves is the tracing overhead).  Every session's result
   is checked; the last stdout line is one JSON object
   {correct, attempted, failed, metrics}, and any failed or mismatched
   session makes the exit code non-zero.  [--describe] prints the
   metric catalog in BENCHMARK.json's shape.

   Times (set-up, latencies, throughput, CPU) are reported at the
   reference host speed: each piece of work's time is divided by the
   host's slowdown, sampled right before and after it (see [Hostspeed]);
   the median slowdown is printed with the results and reported as
   [host.slowdown]. *)

open Secmed_core
open Secmed_net
module Trace = Secmed_obs.Trace
module Json = Secmed_obs.Json
module Export = Secmed_obs.Export
module Clock = Secmed_obs.Clock
module Counters = Secmed_crypto.Counters
module Bigint = Secmed_bigint.Bigint
module Transcript = Secmed_mediation.Transcript

let params = { Env.group_bits = 256; paillier_bits = 512 }
let setup_reps = 5

(* A run never outlives this, whatever the sessions do. *)
let hard_deadline = ref infinity

(* ------------------------------------------------------------------ *)
(* Scenarios *)

let derive seed tag = Hashtbl.hash (seed, tag) land 0x3FFFFFFF

let spec ~rows ~distinct ~overlap ~extra seed =
  {
    Workload.default with
    rows_left = rows;
    rows_right = rows;
    distinct_left = distinct;
    distinct_right = distinct;
    overlap;
    extra_attrs = extra;
    seed;
  }

let reference_spec = spec ~rows:32 ~distinct:16 ~overlap:8 ~extra:2
let small_spec = spec ~rows:12 ~distinct:6 ~overlap:3 ~extra:1
let bulk_spec = spec ~rows:1000 ~distinct:16 ~overlap:8 ~extra:6

(* The served workloads deploy one fixed scenario — the deployment is
   part of the workload, and every session queries it — while --seed
   drives the session schedule.  In-process, every session draws a
   fresh scenario from --seed. *)
let deployed_seed = 2007

let scheme_of name =
  match Protocol.scheme_of_name name with Some s -> s | None -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* Run-wide accounting *)

type run = {
  mutable attempted : int;
  mutable failures : string list;
  latencies : (string, float list) Hashtbl.t;  (** end-to-end ms per scheme *)
  mutable traces : (int * string * Export.process list) list;
  mutable next_id : int;
  mu : Mutex.t;
}

let run =
  { attempted = 0; failures = []; latencies = Hashtbl.create 4; traces = []; next_id = 0;
    mu = Mutex.create () }

let fail fmt = Printf.ksprintf (fun msg -> Mutex.protect run.mu (fun () -> run.failures <- msg :: run.failures)) fmt
let attempt () = Mutex.protect run.mu (fun () -> run.attempted <- run.attempted + 1)
let fresh_id () = Mutex.protect run.mu (fun () -> run.next_id <- run.next_id + 1; run.next_id)

(* Measuring stops early past the deadline or once sessions keep
   failing: the run is already a failure, and must still end in time. *)
let give_up () =
  Clock.now () > !hard_deadline || Mutex.protect run.mu (fun () -> List.length run.failures >= 10)

let add_latency scheme ms =
  Hashtbl.replace run.latencies scheme
    (ms :: Option.value (Hashtbl.find_opt run.latencies scheme) ~default:[])

(* The correctness gate for one session: served by the scheme asked for,
   with the result equal to the trusted-mediator reference. *)
let check ~what scheme = function
  | Protocol.Served o when Option.is_some o.Outcome.degraded_from ->
    fail "%s %s: degraded to %s" what scheme o.Outcome.scheme;
    None
  | Protocol.Served o when not (Outcome.correct o) ->
    fail "%s %s: result differs from the trusted-mediator reference" what scheme;
    None
  | Protocol.Served o -> Some o
  | Protocol.Unserved fs ->
    fail "%s %s: unserved: %s" what scheme (Format.asprintf "%a" Protocol.pp_session_failures fs);
    None

let count_of tbl s = List.length (Option.value (Hashtbl.find_opt tbl s) ~default:[])

let traced_session ~sid ~scheme f =
  let col = Trace.create () in
  let r =
    Trace.with_collector col (fun () ->
        Trace.with_span
          ~attrs:[ ("bench.session", Json.Int sid); ("scheme", Json.Str scheme) ]
          "bench.session" f)
  in
  (r, col)

(* Bench-side spans around the stats/ping probes, kept with the rest. *)
let probe_span name f =
  let sid = fresh_id () in
  let r, col = traced_session ~sid ~scheme:"" (fun () -> Trace.with_span name f) in
  Mutex.protect run.mu (fun () ->
      run.traces <- (sid, name, [ Export.process_of_trace ~name:"bench" col ]) :: run.traces);
  r

(* ------------------------------------------------------------------ *)
(* In-process sessions *)

type inproc = {
  i_lat : (string, float list) Hashtbl.t;  (** ms *)
  i_window : float;  (** seconds inside sessions *)
  i_wall : float;  (** loop wall, scenario builds included *)
  i_cpu : float;
  i_alloc : float;  (** bytes allocated inside sessions *)
  i_bytes : float;  (** transcript bytes *)
  i_outcomes : (string * Outcome.t) list;
  i_breakdowns : (string * Layers.breakdown) list;
  i_hits : int * int;  (** Bigint context-cache (hits, misses) *)
  i_hwm_kb : int;
  i_slowdowns : float list;  (** the host's, one per session *)
}

let schemes = Catalog.schemes

(* One caller, a closed loop over das/commutative/pm in a fixed
   interleaving, every session on a freshly generated scenario.  The
   window clock runs only inside sessions; the loop ends on a whole
   round once the window is full (in wall seconds) and every scheme has
   [min_n] samples.
   The host's speed is sampled between sessions, and each session's
   times are taken at the reference speed (see [Hostspeed]). *)
let inproc_pass ~seed ~caller ~seconds ~min_n ~traced =
  let lat = Hashtbl.create 4 in
  let window = ref 0. and raw_window = ref 0. and cpu = ref 0. and alloc = ref 0. and bytes = ref 0. in
  let outcomes = ref [] and breakdowns = ref [] and slowdowns = ref [] in
  let started = Clock.now () in
  let i = ref 0 in
  let speed = ref (Hostspeed.sample ()) in
  let h0, m0 = Bigint.ctx_cache_stats () in
  let enough () =
    !i mod List.length schemes = 0
    && ((!raw_window >= seconds && List.for_all (fun s -> count_of lat s >= min_n) schemes)
       || give_up ())
  in
  while not (enough ()) do
    let scheme = List.nth schemes (!i mod List.length schemes) in
    let sid = fresh_id () in
    let spec = reference_spec (derive seed ("session", caller, !i)) in
    incr i;
    attempt ();
    let session () =
      let env, client, query =
        Trace.with_span ~attrs:[ ("bench.session", Json.Int sid) ] "bench.scenario" (fun () ->
            Workload.scenario ~params spec)
      in
      let c0 = Procfs.self_cpu () and a0 = Gc.allocated_bytes () and t0 = Clock.now () in
      let r =
        Trace.with_span
          ~attrs:[ ("bench.session", Json.Int sid); ("scheme", Json.Str scheme) ]
          "bench.session"
          (fun () -> Protocol.run_session (scheme_of scheme) env client ~query)
      in
      let t1 = Clock.now () and a1 = Gc.allocated_bytes () and c1 = Procfs.self_cpu () in
      (r, t1 -. t0, c1 -. c0, a1 -. a0)
    in
    let (r, dt, dc, da), col =
      if traced then
        let col = Trace.create () in
        (Trace.with_collector col session, Some col)
      else (session (), None)
    in
    let after = Hostspeed.sample () in
    let slow = Hostspeed.slowdown [ !speed; after ] in
    speed := after;
    raw_window := !raw_window +. dt;
    let dt = dt /. slow and dc = dc /. slow in
    match check ~what:"in-process" scheme r with
    | None -> ()
    | Some o ->
      slowdowns := slow :: !slowdowns;
      window := !window +. dt;
      cpu := !cpu +. dc;
      alloc := !alloc +. da;
      bytes := !bytes +. float_of_int (Transcript.total_bytes o.Outcome.transcript);
      Hashtbl.replace lat scheme ((dt *. 1000.) :: Option.value (Hashtbl.find_opt lat scheme) ~default:[]);
      outcomes := (scheme, o) :: !outcomes;
      Option.iter
        (fun col ->
          let procs = [ Export.process_of_trace ~name:"bench" col ] in
          breakdowns := (scheme, Layers.analyse procs) :: !breakdowns;
          Mutex.protect run.mu (fun () -> run.traces <- (sid, scheme, procs) :: run.traces))
        col
  done;
  {
    i_lat = lat;
    i_window = !window;
    i_wall = Clock.now () -. started;
    i_cpu = !cpu;
    i_alloc = !alloc;
    i_bytes = !bytes;
    i_outcomes = !outcomes;
    i_breakdowns = !breakdowns;
    i_hits = (let h1, m1 = Bigint.ctx_cache_stats () in (h1 - h0, m1 - m0));
    i_hwm_kb = Procfs.hwm_kb (Unix.getpid ());
    i_slowdowns = !slowdowns;
  }

(* Runs [f k] in [n] forked children at once and returns their results,
   marshalled back over pipes; every child is waited for. *)
let in_children n f =
  flush_all ();
  let children =
    List.init n (fun k ->
        let rd, wr = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close rd;
          let result = try Ok (f k) with e -> Error (Printexc.to_string e) in
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc result [];
          close_out oc;
          Unix._exit 0
        | pid ->
          Unix.close wr;
          (pid, rd))
  in
  List.map
    (fun (pid, rd) ->
      let ic = Unix.in_channel_of_descr rd in
      let result = try Marshal.from_channel ic with End_of_file -> Error "child died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      result)
    children

(* The in-process workload runs one caller per vCPU, each its own
   process: a single caller measures whichever vCPU it lands on, and
   on a 2-vCPU VM of a shared host the two vCPUs ran up to 14% apart at
   the same moment, which moved whole runs.  Each child
   returns its pass together with its share of the run-wide accounting,
   which is folded back into [run] here. *)
let callers = 2

let inproc_callers ~seed ~seconds ~min_n ~traced =
  let passes =
    in_children callers (fun caller ->
        run.next_id <- run.next_id + ((caller + 1) * 1_000_000);
        run.attempted <- 0;
        run.failures <- [];
        run.traces <- [];
        let p = inproc_pass ~seed ~caller ~seconds ~min_n ~traced in
        (p, run.attempted, run.failures, run.traces))
  in
  List.filter_map
    (function
      | Ok (p, attempted, failures, traces) ->
        run.attempted <- run.attempted + attempted;
        run.failures <- failures @ run.failures;
        run.traces <- traces @ run.traces;
        Some p
      | Error e ->
        fail "in-process caller: %s" e;
        None)
    passes

(* ------------------------------------------------------------------ *)
(* Served sessions *)

type deployment = {
  d_name : string;
  d_spec : int -> Workload.spec;
  d_shards : int;
  d_per_round : int;  (** sessions in one Loadgen round *)
  d_mix : string list;
}

(* In-process executions of one scheme at the deployment's spec: the
   reference Loadgen verifies against, its CPU (so the verification
   can be taken out of the client's CPU) and, in trace mode, the
   in-process latency and allocation the served numbers are set
   against. *)
type reference = {
  r_outcome : Outcome.t;
  r_ms : float list;
  r_cpu : float;  (** seconds per execution, at the reference speed *)
  r_alloc : float;  (** bytes per execution *)
}

let reference_runs ~runs env client query scheme =
  let one () =
    let k0 = Hostspeed.sample () in
    let c0 = Procfs.self_cpu () and a0 = Gc.allocated_bytes () and t0 = Clock.now () in
    let o, _ = Counters.with_fresh (fun () -> Protocol.run_exn (scheme_of scheme) env client ~query) in
    let t1 = Clock.now () and c1 = Procfs.self_cpu () and a1 = Gc.allocated_bytes () in
    let slow = Hostspeed.slowdown [ k0; Hostspeed.sample () ] in
    (o, (t1 -. t0) *. 1000. /. slow, (c1 -. c0) /. slow, a1 -. a0)
  in
  let rs = List.init runs (fun _ -> one ()) in
  let o, _, _, _ = List.hd rs in
  (* Loadgen holds served sessions to bit-identity with this execution,
     so it must itself match the trusted-mediator reference. *)
  attempt ();
  ignore (check ~what:"reference" scheme (Protocol.Served o));
  {
    r_outcome = o;
    r_ms = List.map (fun (_, ms, _, _) -> ms) rs;
    r_cpu = Stats.mean (List.map (fun (_, _, c, _) -> c) rs);
    r_alloc = Stats.mean (List.map (fun (_, _, _, a) -> a) rs);
  }

type served = {
  s_setup : float;  (** median over the repeated set-ups, seconds *)
  s_lat : (string, float list) Hashtbl.t;  (** ms, untraced *)
  s_served : int;
  s_window : float;
  s_slowdown : float;  (** the host's, mean over the window *)
  s_cpu_client : float;
  s_cpu_mediator : float;
  s_cpu_sources : float;
  s_stats0 : Json.t;
  s_stats1 : Json.t;
  s_rss_kb : int;
  s_epochs : int;
  s_retries : int;
  s_refs : (string * reference) list;
  s_traced_lat : (string, float list) Hashtbl.t;
  s_breakdowns : (string * Layers.breakdown) list;
  s_outcomes : (string * Outcome.t) list;
  s_ping : Probe.t;
  s_hits : int * int;
}

let stats_of port =
  let text = probe_span "bench.stats" (fun () -> Peer.stats ~host:"127.0.0.1" ~port ()) in
  match Json.parse text with Ok j -> j | Error e -> failwith ("stats: " ^ e)

let rec path j = function
  | [] -> Json.to_float j |> Option.value ~default:0.
  | k :: rest -> ( match Json.member k j with Some j -> path j rest | None -> 0.)

let delta s0 s1 keys = path s1 keys -. path s0 keys

(* Latencies in [lat] divided by the host's slowdown [slow]. *)
let at_reference_speed slow lat =
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.map (fun ms -> ms /. slow) l)) lat

(* Untraced: Loadgen rounds with verification on.  Each round runs
   [d_per_round] sessions of one scheme from one closed-loop worker (one
   verification reference per round), and the rounds rotate through the
   mix; the loop ends on a whole rotation once the window is full (in
   wall seconds) and every scheme has [min_n] samples.  Whole rotations
   keep the mix fixed for the per-session throughput, CPU and byte
   figures.
   The host's speed is sampled between rounds, and the window's times
   are divided by its mean slowdown over the window (see [Hostspeed]).
   Not round by round, as in-process: a served round's latency follows
   the kernel only loosely, its sessions being mostly waits between
   processes.  Over ten seeds, dividing each round by its own samples
   spread the tails by 0.10-0.21 of their median, the window's mean by
   0.04-0.08. *)
let loadgen_rounds c dep ~seed ~seconds ~min_n ~verify_cpu =
  let lat = Hashtbl.create 4 in
  let window = ref 0. and client_cpu = ref 0. and verify = ref 0. and served = ref 0 in
  let speed = ref [ Hostspeed.sample () ] in
  let epochs = ref 0 and retries = ref 0 in
  let round = ref 0 in
  let mix = Array.of_list dep.d_mix in
  let enough () =
    !round mod Array.length mix = 0
    && ((!window >= seconds && List.for_all (fun s -> count_of lat s >= min_n) dep.d_mix)
       || give_up ())
  in
  while not (enough ()) do
    let scheme = mix.((!round + seed) mod Array.length mix) in
    incr round;
    let config =
      {
        Loadgen.default_config with
        workers = 1;
        sessions_per_worker = dep.d_per_round;
        domains = 1;
        mix = [ (scheme, 1) ];
        seed = Printf.sprintf "perfbench-%d-%s-r%d" seed dep.d_name !round;
        fallback = false;
        verify = true;
        io_timeout = 60.;
      }
    in
    let c0 = Procfs.self_cpu () in
    let report = Loadgen.run config (Loopback.target c) in
    client_cpu := !client_cpu +. (Procfs.self_cpu () -. c0);
    speed := Hostspeed.sample () :: !speed;
    (* Loadgen verified the round against one in-process reference
       execution of the scheme; that CPU is not the sessions'. *)
    verify := !verify +. verify_cpu scheme;
    window := !window +. report.Loadgen.elapsed;
    List.iter
      (fun (r : Loadgen.record) ->
        attempt ();
        epochs := !epochs + r.r_epochs;
        retries := !retries + r.r_retries;
        match r.r_kind with
        | Loadgen.Served ->
          incr served;
          Hashtbl.replace lat r.r_scheme
            ((r.r_latency *. 1000.) :: Option.value (Hashtbl.find_opt lat r.r_scheme) ~default:[])
        | k -> fail "served %s: %s" r.r_scheme (Loadgen.kind_name k))
      report.Loadgen.records;
    List.iter (fun msg -> fail "verify: %s" msg) report.Loadgen.verify_failures
  done;
  let slow = Hostspeed.slowdown !speed in
  at_reference_speed slow lat;
  (lat, !window /. slow, slow, (!client_cpu /. slow) -. !verify, !served, !epochs, !retries)

(* Traced: the same rounds, but the benchmark's own [Peer.run] calls
   with tracing on, every session's spans merged across the processes
   and kept in memory.  Latencies are at the reference speed, as in the
   untraced rounds; the spans are as timed. *)
let traced_rounds c dep ~seed ~seconds ~min_n =
  let lat = Hashtbl.create 4 in
  let breakdowns = ref [] and outcomes = ref [] in
  let mix = Array.of_list dep.d_mix in
  let started = Clock.now () in
  let round = ref 0 in
  let speed = ref [ Hostspeed.sample () ] in
  let enough () =
    !round mod Array.length mix = 0
    && ((Clock.now () -. started >= seconds && List.for_all (fun s -> count_of lat s >= min_n) dep.d_mix)
       || give_up ())
  in
  let session scheme =
    let sid = fresh_id () in
    attempt ();
    let t0 = Clock.now () in
    match traced_session ~sid ~scheme (fun () -> Loopback.query c ~trace:true ~scheme ()) with
    | exception e -> fail "traced %s: %s" scheme (Printexc.to_string e)
    | resp, col -> (
      let ms = (Clock.now () -. t0) *. 1000. in
      match check ~what:"traced" scheme resp.Peer.result with
      | None -> ()
      | Some o ->
        let procs = Trace_wire.merge ~client:col resp.Peer.remote_spans in
        Hashtbl.replace lat scheme (ms :: Option.value (Hashtbl.find_opt lat scheme) ~default:[]);
        breakdowns := (scheme, Layers.analyse procs) :: !breakdowns;
        outcomes := (scheme, o) :: !outcomes;
        Mutex.protect run.mu (fun () -> run.traces <- (sid, scheme, procs) :: run.traces))
  in
  while not (enough ()) do
    let scheme = mix.((!round + seed) mod Array.length mix) in
    incr round;
    for _ = 1 to dep.d_per_round do
      session scheme
    done;
    speed := Hostspeed.sample () :: !speed
  done;
  at_reference_speed (Hostspeed.slowdown !speed) lat;
  (lat, !breakdowns, !outcomes)

let serve_phase dep ~seed ~seconds ~min_n ~trace =
  let spec = dep.d_spec deployed_seed in
  let pids c =
    Loopback.mediator_pid c
    :: List.concat_map
         (fun id ->
           List.init dep.d_shards (fun shard -> Loopback.source_pid c ~shard ~id ~replica:0 ()))
         [ 1; 2 ]
  in
  let measure c ~setup ~refs =
    let port = Loopback.port c in
    let verify_cpu s = (List.assoc s refs).r_cpu in
    let untraced_seconds = if trace then seconds /. 2. else seconds in
    let refs =
      if trace then
        (* more in-process executions at this spec, for the in-process
           latency, CPU and allocation the served numbers are set against *)
        List.map
          (fun s ->
            (s, reference_runs ~runs:(if s = "commutative" then 5 else 3) (Loopback.env c)
                  (Loopback.client_of c) (Loopback.canonical_query c) s))
          dep.d_mix
      else refs
    in
    let s0 = stats_of port in
    let cpu0 = List.map Procfs.cpu_seconds (pids c) in
    let lat, window, slowdown, client_cpu, served, epochs, retries =
      loadgen_rounds c dep ~seed ~seconds:untraced_seconds ~min_n ~verify_cpu
    in
    let cpu1 = List.map Procfs.cpu_seconds (pids c) in
    let s1 = stats_of port in
    let rss_kb = List.fold_left (fun acc pid -> acc + Procfs.hwm_kb pid) (Procfs.hwm_kb (Unix.getpid ())) (pids c) in
    let cpu = List.map2 (fun c1 c0 -> (c1 -. c0) /. slowdown) cpu1 cpu0 in
    let traced_lat, breakdowns, outcomes, ping, hits =
      if trace then begin
        let h0, m0 = Bigint.ctx_cache_stats () in
        let tl, bd, oc = traced_rounds c dep ~seed ~seconds:(seconds /. 2.) ~min_n in
        let h1, m1 = Bigint.ctx_cache_stats () in
        let ping = probe_span "bench.ping" (fun () -> Probe.ping_rtt ~port) in
        (tl, bd, oc, ping, (h1 - h0, m1 - m0))
      end
      else (Hashtbl.create 1, [], [], [], (0, 0))
    in
    {
      s_setup = setup;
      s_lat = lat;
      s_served = served;
      s_window = window;
      s_slowdown = slowdown;
      s_cpu_client = client_cpu;
      s_cpu_mediator = List.hd cpu;
      s_cpu_sources = Stats.sum (List.tl cpu);
      s_stats0 = s0;
      s_stats1 = s1;
      s_rss_kb = rss_kb;
      s_epochs = epochs;
      s_retries = retries;
      s_refs = refs;
      s_traced_lat = traced_lat;
      s_breakdowns = breakdowns;
      s_outcomes = outcomes;
      s_ping = ping;
      s_hits = hits;
    }
  in
  (* Set up [setup_reps] times — scenario and keys, the cluster fork,
     warm-up sessions that dial the pools, one in-process reference per
     scheme — and measure on the last deployment.  Each earlier cluster
     is reaped before the next is forked. *)
  let rec setups done_ =
    let k0 = Hostspeed.samples 2 and t0 = Clock.now () in
    let last = List.length done_ + 1 = setup_reps in
    let result =
      Loopback.with_cluster ~params ~spec ~shards:dep.d_shards ~io_timeout:60. (fun c ->
          List.iter
            (fun scheme ->
              attempt ();
              match Loopback.query c ~scheme () with
              | resp -> ignore (check ~what:"warm-up" scheme resp.Peer.result)
              | exception e -> fail "warm-up %s: %s" scheme (Printexc.to_string e))
            dep.d_mix;
          let refs =
            List.map
              (fun s ->
                (s, reference_runs ~runs:1 (Loopback.env c) (Loopback.client_of c)
                      (Loopback.canonical_query c) s))
              dep.d_mix
          in
          let t1 = Clock.now () in
          let setup = (t1 -. t0) /. Hostspeed.slowdown (k0 @ Hostspeed.samples 2) in
          if last then Either.Right (measure c ~setup:(Stats.median (setup :: done_)) ~refs)
          else Either.Left setup)
    in
    match result with Either.Right r -> r | Either.Left s -> setups (s :: done_)
  in
  setups []

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* One closed-loop worker drives each deployment.  With two on the
   2-vCPU host, a session's latency depended on how its CPU-heavy phases
   happened to overlap the other worker's: das p50 ranged 111-141 ms over
   five seeds, against 71-73 ms with one worker, for 6.3 sessions/s
   against 6.9.
   Loadgen rebuilds its in-process reference for every round it
   verifies, so a round holds 6 sessions: with 3, the rebuilds took
   ~40% of a serve-shared run's wall time. *)
let serve_shared =
  { d_name = "serve-shared"; d_spec = small_spec; d_shards = 1; d_per_round = 6;
    d_mix = schemes }

let serve_bulk =
  { d_name = "serve-bulk"; d_spec = bulk_spec; d_shards = 2; d_per_round = 6;
    d_mix = [ "commutative" ] }


type measured = {
  setup : float;
  qps : float;
  p50 : (string * float) list;  (** per-scheme median latency, ms *)
  cpu_ms : float;
  bytes : float;
  rss_mb : float;
  (* per-layer inputs *)
  untraced_lat : (string, float list) Hashtbl.t;
  traced_lat : (string, float list) Hashtbl.t;
  breakdowns : (string * Layers.breakdown) list;
  outcomes : (string * Outcome.t) list;
  layer : (string * float) list;  (** workload-specific per-layer values *)
  slowdown : float;
      (** the host's slowdown over the untraced window: the median over
          sessions in-process, the mean over rounds when served *)
}

let of_scheme s xs = List.filter_map (fun (k, v) -> if k = s then Some v else None) xs

let per_session x n = if n = 0 then 0. else x /. float_of_int n

let inproc_workload ~seed ~seconds ~trace =
  (* per caller; the callers' samples are pooled *)
  let min_n = if trace then 2 else 6 in
  let setups =
    List.init setup_reps (fun rep ->
        let k0 = Hostspeed.samples 2 and t0 = Clock.now () in
        let env, client, query = Workload.scenario ~params (reference_spec (derive seed ("setup", rep))) in
        List.iter
          (fun scheme ->
            attempt ();
            ignore (check ~what:"warm-up" scheme (Protocol.run_session (scheme_of scheme) env client ~query)))
          schemes;
        let t1 = Clock.now () in
        (t1 -. t0) /. Hostspeed.slowdown (k0 @ Hostspeed.samples 2))
  in
  let untraced_seconds = if trace then seconds /. 2. else seconds in
  let ps = inproc_callers ~seed ~seconds:untraced_seconds ~min_n ~traced:false in
  let pooled f = List.concat_map f ps in
  let total f = Stats.sum (List.map f ps) in
  let lat_of passes =
    let t = Hashtbl.create 4 in
    List.iter
      (fun p -> Hashtbl.iter (fun s l -> Hashtbl.replace t s (l @ Option.value (Hashtbl.find_opt t s) ~default:[])) p.i_lat)
      passes;
    t
  in
  let untraced_lat = lat_of ps in
  Hashtbl.iter (fun s l -> List.iter (add_latency s) l) untraced_lat;
  let outcomes = pooled (fun p -> p.i_outcomes) in
  let n = List.length outcomes in
  let traced, ping =
    if not trace then ([], [])
    else begin
      (* the same scenario sequences again, so the halves differ only in tracing *)
      let t = inproc_callers ~seed ~seconds:(seconds /. 2.) ~min_n ~traced:true in
      (* No deployment here: the ping goes to a small cluster forked for the probe. *)
      let ping =
        Loopback.with_cluster ~params ~spec:(small_spec (derive seed "ping")) (fun c ->
            probe_span "bench.ping" (fun () -> Probe.ping_rtt ~port:(Loopback.port c)))
      in
      (t, ping)
    end
  in
  let breakdowns = List.concat_map (fun p -> p.i_breakdowns) traced in
  (* In-process, every party runs in the caller's process: its CPU
     splits over the roles by the phase time each party's phases took. *)
  let party_share party =
    let party_ms =
      Stats.sum
        (List.concat_map
           (fun (_, o) ->
             List.filter_map
               (fun (ph, t) -> if Catalog.phase_party ph = party then Some t else None)
               o.Outcome.timings)
           outcomes)
    in
    let all_ms = Stats.sum (List.map (fun (_, o) -> Outcome.timing_total o) outcomes) in
    if all_ms <= 0. then 0. else party_ms /. all_ms
  in
  let cpu_ms = per_session (total (fun p -> p.i_cpu) *. 1000.) n in
  let queue_wait = Stats.mean (List.map (fun (_, b) -> Layers.queue_wait b) breakdowns) in
  let h = Stats.sum (List.map (fun p -> float_of_int (fst p.i_hits)) traced)
  and m = Stats.sum (List.map (fun p -> float_of_int (snd p.i_hits)) traced) in
  {
    setup = Stats.median setups;
    (* the callers run side by side: their session rates add up *)
    qps = total (fun p -> float_of_int (List.length p.i_outcomes) /. p.i_window);
    (* Each caller's median, averaged over the callers: pooled, the two
       vCPUs' sessions form two clusters and the pooled median falls
       anywhere in the gap between them. *)
    p50 =
      List.filter_map
        (fun s ->
          match List.filter_map (fun p -> Hashtbl.find_opt p.i_lat s) ps with
          | [] -> None
          | ls -> Some (s, Stats.mean (List.map Stats.median ls)))
        schemes;
    cpu_ms;
    bytes = per_session (total (fun p -> p.i_bytes)) n;
    rss_mb = total (fun p -> float_of_int p.i_hwm_kb) /. 1024.;
    untraced_lat;
    traced_lat = lat_of traced;
    breakdowns;
    outcomes = (if trace then List.concat_map (fun p -> p.i_outcomes) traced else outcomes);
    layer =
      [
        ("bigint.alloc_mb_per_session", per_session (total (fun p -> p.i_alloc)) n /. 1048576.);
        ("bigint.ctx_hit_ratio", if h +. m = 0. then 0. else h /. (h +. m));
        ( "mediation.epochs_per_session",
          Stats.mean (List.map (fun (_, b) -> float_of_int b.Layers.attempts) breakdowns) );
        ("mediation.connect_retries", 0.);
        ("net.frames_per_session", 0.);
        ("net.overhead_ratio", 0.);
        ("net.sched_busy_ms_per_session", per_session (total (fun p -> p.i_window) *. 1000.) n);
        ("net.sched_utilization", total (fun p -> p.i_window) /. total (fun p -> p.i_wall));
        ("net.queue_wait_ms", queue_wait);
        ("net.streamed_rows_per_session", 0.);
        ("net.streamed_bytes_per_session", 0.);
        ("proc.client_cpu_ms_per_session", cpu_ms *. party_share "Client");
        ("proc.mediator_cpu_ms_per_session", cpu_ms *. party_share "Mediator");
        ("proc.source_cpu_ms_per_session", cpu_ms *. party_share "Source");
        ("proc.replica_factor", 1.);
      ]
      @ List.map (fun r -> (Printf.sprintf "net.hwm.%s_kb" r, 0.)) Catalog.hwm_regions
      (* No wire in-process: what is left of a session outside its
         protocol spans is the driver wrapper. *)
      @ List.map
          (fun s ->
            ( s ^ ".net_residual_ms",
              Stats.mean (List.map (fun b -> b.Layers.outside) (of_scheme s breakdowns)) ))
          schemes
      @ ping;
    slowdown = Stats.median (pooled (fun p -> p.i_slowdowns));
  }

let serve_workload ~seed ~seconds ~trace dep =
  let min_n = if trace then 4 else 12 in
  let r = serve_phase dep ~seed ~seconds ~min_n ~trace in
  Hashtbl.iter (fun s l -> List.iter (add_latency s) l) r.s_lat;
  let n = r.s_served in
  let s0 = r.s_stats0 and s1 = r.s_stats1 in
  let socket_bytes = delta s0 s1 [ "net"; "bytes_sent" ] +. delta s0 s1 [ "net"; "bytes_recv" ] in
  let cpu = r.s_cpu_client +. r.s_cpu_mediator +. r.s_cpu_sources in
  let cpu_ms = per_session (cpu *. 1000.) n in
  let mean_over_mix f = Stats.mean (List.map (fun (_, re) -> f re) r.s_refs) in
  let transcript_bytes =
    mean_over_mix (fun re -> float_of_int (Transcript.total_bytes re.r_outcome.Outcome.transcript))
  in
  let busy = delta s0 s1 [ "scheduler"; "busy_seconds" ] in
  let completed = delta s0 s1 [ "scheduler"; "completed" ] in
  let uptime = delta s0 s1 [ "uptime_seconds" ] in
  let workers = path s1 [ "scheduler"; "workers" ] in
  let queue_wait = Stats.mean (List.map (fun (_, b) -> Layers.queue_wait b) r.s_breakdowns) in
  (* served p50 minus the in-process p50 of the same scheme and spec *)
  let residual s =
    match (Hashtbl.find_opt r.s_lat s, List.assoc_opt s r.s_refs) with
    | Some l, Some re -> Stats.median l -. Stats.median re.r_ms
    | _ -> 0.
  in
  let h, m = r.s_hits in
  {
    setup = r.s_setup;
    qps = float_of_int n /. r.s_window;
    p50 = Hashtbl.fold (fun s l acc -> (s, Stats.median l) :: acc) r.s_lat [];
    cpu_ms;
    bytes = per_session socket_bytes n;
    rss_mb = float_of_int r.s_rss_kb /. 1024.;
    untraced_lat = r.s_lat;
    traced_lat = r.s_traced_lat;
    breakdowns = r.s_breakdowns;
    outcomes = r.s_outcomes;
    layer =
      [
        ("bigint.alloc_mb_per_session", mean_over_mix (fun re -> re.r_alloc) /. 1048576.);
        ("bigint.ctx_hit_ratio", if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m));
        ("mediation.epochs_per_session", per_session (float_of_int r.s_epochs) n);
        ("mediation.connect_retries", float_of_int r.s_retries);
        ( "net.frames_per_session",
          per_session (delta s0 s1 [ "net"; "frames_sent" ] +. delta s0 s1 [ "net"; "frames_recv" ]) n );
        ("net.overhead_ratio", per_session socket_bytes n /. transcript_bytes);
        ("net.sched_busy_ms_per_session", if completed <= 0. then 0. else busy /. completed *. 1000.);
        ("net.sched_utilization", if uptime <= 0. then 0. else busy /. (uptime *. workers));
        ("net.queue_wait_ms", queue_wait);
        ( "net.streamed_rows_per_session",
          per_session (delta s0 s1 [ "streams"; "rows_in" ] +. delta s0 s1 [ "streams"; "rows_out" ]) n );
        ( "net.streamed_bytes_per_session",
          per_session (delta s0 s1 [ "streams"; "bytes_in" ] +. delta s0 s1 [ "streams"; "bytes_out" ]) n );
        ("proc.client_cpu_ms_per_session", per_session (r.s_cpu_client *. 1000.) n);
        ("proc.mediator_cpu_ms_per_session", per_session (r.s_cpu_mediator *. 1000.) n);
        ("proc.source_cpu_ms_per_session", per_session (r.s_cpu_sources *. 1000.) n);
        ("proc.replica_factor", cpu_ms /. (mean_over_mix (fun re -> re.r_cpu) *. 1000.));
      ]
      @ List.map
          (fun r -> (Printf.sprintf "net.hwm.%s_kb" r, path s1 [ "streams"; "hwm"; r; "peak" ] /. 1024.))
          Catalog.hwm_regions
      @ List.map (fun (s, _) -> (s ^ ".net_residual_ms", residual s)) r.s_refs
      @ r.s_ping;
    slowdown = r.s_slowdown;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let wellformed (o : Outcome.t) =
  match
    ( Outcome.observed o.Outcome.client_observed "well-formed-decryptions",
      Outcome.observed o.Outcome.client_observed "ciphertexts-received" )
  with
  | Some w, Some n when n > 0 -> float_of_int w /. float_of_int n
  | _ -> 0.

(* Per-layer values derived from the traced half's spans and outcomes
   plus the unit-cost probe; [m.layer] adds what was sampled from
   outside (the untraced half's /proc and stats deltas). *)
let layer_metrics m probe =
  let schemes = List.filter (fun s -> List.mem_assoc s m.outcomes) schemes in
  let tables = List.map (fun s -> (s, Layers.table (of_scheme s m.breakdowns))) schemes in
  let per_scheme s =
    let outcomes = of_scheme s m.outcomes in
    let mean f = Stats.mean (List.map f outcomes) in
    let t = List.assoc s tables in
    List.map
      (fun p ->
        ( Printf.sprintf "%s.ops.%s" s p,
          mean (fun o ->
              float_of_int
                (List.fold_left
                   (fun acc (q, n) -> if Counters.name q = p then acc + n else acc)
                   0 o.Outcome.counters)) ))
      (Catalog.primitives s)
    @ [ (s ^ ".crypto_est_ms", mean (fun o -> Probe.crypto_estimate_ms probe o.Outcome.counters)) ]
    @ List.map (fun p -> (Printf.sprintf "%s.phase.%s_ms" s p, Layers.phase_ms t p)) (Catalog.phases s)
    @ [
        (s ^ ".unattributed_ms", t.Layers.m_unattributed);
        (s ^ ".messages", mean (fun o -> float_of_int (Transcript.message_count o.Outcome.transcript)));
        (s ^ ".transcript_bytes", mean (fun o -> float_of_int (Transcript.total_bytes o.Outcome.transcript)));
      ]
  in
  let overhead =
    Stats.mean
      (List.filter_map
         (fun s ->
           match (Hashtbl.find_opt m.traced_lat s, Hashtbl.find_opt m.untraced_lat s) with
           | Some t, Some u when t <> [] && u <> [] ->
             Some (100. *. ((Stats.median t /. Stats.median u) -. 1.))
           | _ -> None)
         schemes)
  in
  ( probe
    @ List.concat_map per_scheme schemes
    @ (if List.mem "das" schemes then
         [ ("das.superset_factor", Stats.mean (List.map Outcome.superset_factor (of_scheme "das" m.outcomes))) ]
       else [])
    @ (if List.mem "pm" schemes then
         [ ("pm.wellformed_ratio", Stats.mean (List.map wellformed (of_scheme "pm" m.outcomes))) ]
       else [])
    @ [
        ("host.slowdown", m.slowdown);
        ("obs.trace_overhead_pct", overhead);
        ("obs.spans_per_session", Stats.mean (List.map (fun (_, b) -> float_of_int b.Layers.spans) m.breakdowns));
      ]
    @ m.layer,
    tables )

(* Per-scheme metrics cover the schemes the workload runs. *)
let e2e_metrics m =
  let schemes = List.filter (Hashtbl.mem run.latencies) schemes in
  let tails = List.map (fun s -> (s, Stats.tail (Hashtbl.find run.latencies s))) schemes in
  let failed = List.length run.failures in
  ( [ ("setup_s", m.setup); ("qps", m.qps) ]
    @ List.map (fun s -> (s ^ "_p50_ms", Option.value (List.assoc_opt s m.p50) ~default:nan)) schemes
    @ List.map (fun (s, t) -> (s ^ "_tail_ms", t.Stats.t_value)) tails
    @ [
        ("cpu_ms_per_session", m.cpu_ms);
        ("bytes_per_session", m.bytes);
        ("peak_rss_mb", m.rss_mb);
        ( "served_frac",
          float_of_int (run.attempted - failed) /. float_of_int (Stdlib.max 1 run.attempted) );
      ],
    tails )

(* ------------------------------------------------------------------ *)
(* Output *)

let out_dir = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* All spans, merged per session, written once at the end. *)
let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (sid, label, procs) ->
          List.iter
            (fun (p : Export.process) ->
              List.iter
                (fun (sp : Trace.span) ->
                  output_string oc
                    (Json.to_string
                       (Json.Obj
                          [
                            ("session", Json.Int sid);
                            ("label", Json.Str label);
                            ("process", Json.Str p.pr_name);
                            ("pid", Json.Int p.pr_pid);
                            ("id", Json.Int sp.id);
                            ("parent", match sp.parent with Some p -> Json.Int p | None -> Json.Null);
                            ("name", Json.Str sp.name);
                            ("kind", Json.Str (Trace.kind_name sp.kind));
                            ("start_ns", Json.Str (Int64.to_string sp.start_ns));
                            ("dur_ns", Json.Str (Int64.to_string (Trace.duration_ns sp)));
                            ("attrs", Json.Obj (Trace.attrs sp));
                          ]));
                  output_char oc '\n')
                p.pr_spans)
            procs)
        (List.rev run.traces))

let finite v = if Float.is_finite v then v else 0.

let metrics_json values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.Str (Catalog.unit_of name)) ]))
       values)

let usage () =
  prerr_endline
    "usage: bench.exe --workload <inproc-fresh|serve-shared|serve-bulk> --seed <n> --seconds <s> \
     --trace <0|1>   |   bench.exe --describe";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--describe" ] then begin
    print_endline (Json.to_string_pretty (Catalog.describe ()));
    exit 0
  end;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = match int_of_string_opt (get "seed") with Some n -> n | None -> usage () in
  let seconds = match float_of_string_opt (get "seconds") with Some s -> s | None -> usage () in
  let trace = get "trace" = "1" in
  let why = match List.assoc_opt workload Catalog.workloads with Some w -> w | None -> usage () in
  (* The library defaults in effect, whatever the caller's environment
     says: one worker domain per batch (also what keeps fork legal). *)
  let env_domains = Option.value (Sys.getenv_opt "SECMED_DOMAINS") ~default:"unset" in
  Batch.set_default_domains 1;
  let started = Clock.now () in
  hard_deadline := started +. 150.;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n  why: %s\n" workload seed seconds trace why;
  Printf.printf "  params: group %d-bit, Paillier %d-bit; batch domains %d (SECMED_DOMAINS=%s ignored)\n%!"
    params.Env.group_bits params.Env.paillier_bits (Batch.default_domains ()) env_domains;
  let m =
    match workload with
    | "inproc-fresh" -> inproc_workload ~seed ~seconds ~trace
    | "serve-shared" -> serve_workload ~seed ~seconds ~trace serve_shared
    | _ -> serve_workload ~seed ~seconds ~trace serve_bulk
  in
  let probe = if trace then Probe.run ~params ~seed else [] in
  let e2e, tails = e2e_metrics m in
  let layers, tables = layer_metrics m probe in
  let failed = List.length run.failures in
  let correct = failed = 0 in
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) (List.rev run.failures);
  let show (name, v) = Printf.printf "  %-40s %14.4f %s\n" name v (Catalog.unit_of name) in
  if not trace then begin
    Printf.printf "end-to-end (untraced pass; times at the reference speed, the host ran %.3fx slower)\n"
      m.slowdown;
    List.iter show e2e;
    Printf.printf "  %-40s %14.4f ratio\n" "failed_frac" (float_of_int failed /. float_of_int (Stdlib.max 1 run.attempted));
    List.iter
      (fun (s, (t : Stats.tail)) ->
        Printf.printf "  %s tail is p%.1f of %d samples (10 beyond it)\n" s t.t_percentile t.t_samples)
      tails
  end
  else begin
    print_endline "per-layer (traced half; /proc and stats deltas from the untraced half)";
    List.iter
      (fun (name, v) ->
        let moves =
          match List.find_opt (fun l -> l.Catalog.l_name = name) Catalog.layers with
          | Some l -> Printf.sprintf "moves %s on %s" l.l_moves l.l_on
          | None -> ""
        in
        Printf.printf "  %-40s %14.4f %-6s %s\n" name v (Catalog.unit_of name) moves)
      layers;
    let outside = if workload = "inproc-fresh" then "driver wrapper" else "wire/wait" in
    List.iter
      (fun (s, t) ->
        if t.Layers.n > 0 then
          print_string
            (Layers.render ~workload ~scheme:s ~outside
               ~crypto_est:(finite (List.assoc (s ^ ".crypto_est_ms") layers)) t))
      tables
  end;
  ensure_dir out_dir;
  let tag = Printf.sprintf "%s/%s-s%d-t%d" out_dir workload seed (if trace then 1 else 0) in
  if trace then write_trace (tag ^ ".trace.jsonl");
  let values = if trace then layers else e2e in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int run.attempted);
        ("failed", Json.Int failed);
        ("metrics", metrics_json values);
      ]
  in
  let described =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("why", Json.Str why);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ( "defaults",
          Json.Obj
            [
              ("group_bits", Json.Int params.Env.group_bits);
              ("paillier_bits", Json.Int params.Env.paillier_bits);
              ("batch_domains", Json.Int (Batch.default_domains ()));
              ("SECMED_DOMAINS_ignored", Json.Str env_domains);
            ] );
        ( "tails",
          Json.Obj
            (List.map
               (fun (s, (t : Stats.tail)) ->
                 (s, Json.Obj [ ("percentile", Json.Float (finite t.t_percentile)); ("samples", Json.Int t.t_samples) ]))
               tails) );
        ( "moves",
          Json.Obj
            (List.map
               (fun l -> (l.Catalog.l_name, Json.Obj [ ("metric", Json.Str l.l_moves); ("workload", Json.Str l.l_on) ]))
               Catalog.layers) );
        ("failures", Json.List (List.map (fun f -> Json.Str f) run.failures));
        ("result", result);
      ]
  in
  Export.write_file (tag ^ ".json") (Json.to_string_pretty described);
  Printf.printf "  wall %.1fs; details in %s.json\n" (Clock.now () -. started) tag;
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)
