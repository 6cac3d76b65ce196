(* BENCH_resilience.json: recovery behaviour of the mediation session
   layer under seeded fault plans — per scenario, how long the session
   took to serve (or give up on) the query, how many end-to-end attempts
   it burned, whether it degraded to a fallback scheme, and how often the
   per-party circuit breakers moved.  The case name carries the
   scenario's scheme, outcome, the scheme it degraded from and the
   schemes (or phases) that failed. *)

open Secmed_mediation
open Secmed_core
module R = Resilience

(* Tiny backoff keeps the suite CI-fast while still exercising the
   schedule; all fault plans are seeded, so runs are reproducible. *)
let bench_policy ?deadline () =
  {
    R.deadline_budget = deadline;
    retry_backoff = R.backoff ~base:0.001 ~max_delay:0.01 ~seed:2007 ();
    breaker_config = R.default_breaker;
  }

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

type scenario = {
  name : string;
  scheme : Protocol.scheme;
  plan : unit -> Fault.plan option;  (* fresh per run: plans are mutable *)
  deadline : float option;
  fallback : bool;
}

let pm = Protocol.Private_matching Pm_join.Session_keys

let scenarios =
  [
    { name = "clean"; scheme = pm; plan = (fun () -> None); deadline = Some 30.0;
      fallback = true };
    {
      name = "transient-drop";
      scheme = pm;
      plan = (fun () -> Some (Fault.plan ~max_retries:2 [ Fault.rule ~times:1 Fault.Drop ]));
      deadline = Some 30.0;
      fallback = true;
    };
    {
      name = "persistent-drop-degrade";
      (* Only PM's delivery label is dropped, so the chain recovers via
         the commutative fallback. *)
      scheme = pm;
      plan =
        (fun () -> Some (Fault.plan ~max_retries:2 [ Fault.rule ~label:"e-values" Fault.Drop ]));
      deadline = Some 30.0;
      fallback = true;
    };
    {
      name = "byzantine-degrade";
      scheme = pm;
      plan =
        (fun () ->
          Some (Fault.plan ~max_retries:2 ~byzantine:[ (1, Fault.Garbage_paillier) ] []));
      deadline = Some 30.0;
      fallback = true;
    };
    {
      name = "deadline-trip";
      scheme = pm;
      plan = (fun () -> Some (Fault.plan ~max_retries:0 [ Fault.rule (Fault.Delay 0.5) ]));
      deadline = Some 0.05;
      fallback = false;
    };
  ]

(* Every protocol attempt roots one Protocol trace span, so the span
   count is the number of end-to-end attempts across the whole
   degradation chain. *)
let measure_session f =
  let t0 = Secmed_obs.Clock.now_ns () in
  let result, trace = Secmed_obs.Trace.collect f in
  let seconds = Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0) in
  let attempts =
    List.length
      (List.filter
         (fun s -> s.Secmed_obs.Trace.kind = Secmed_obs.Trace.Protocol)
         (Secmed_obs.Trace.spans trace))
  in
  (result, seconds, attempts)

let breaker_transition_count session =
  List.fold_left
    (fun acc b -> acc + List.length (R.breaker_transitions b))
    0 (R.breakers session)

type measured = {
  outcome_kind : string;
  degraded_from : string option;
  correct : bool option;
  failures : string list;
  attempts : int;
  seconds : float;
  transitions : int;
}

let entry_rows s m =
  let case =
    String.concat " "
      ([ s.name; "scheme=" ^ Protocol.scheme_name s.scheme; "outcome=" ^ m.outcome_kind ]
      @ (match m.degraded_from with Some d -> [ "degraded_from=" ^ d ] | None -> [])
      @ match m.failures with [] -> [] | fs -> [ "failed=" ^ String.concat "," fs ])
  in
  let flag b = if b then 1. else 0. in
  Bench_util.rows case
    ([ ("attempts", "count", float_of_int m.attempts);
       ("seconds", "s", m.seconds);
       ("breaker_transitions", "count", float_of_int m.transitions);
       ("schemes_failed", "count", float_of_int (List.length m.failures)) ]
    @ (match s.deadline with Some d -> [ ("deadline_budget", "s", d) ] | None -> [])
    @ match m.correct with Some b -> [ ("correct", "0/1", flag b) ] | None -> [])

let run_scenario env client query s =
  let session = R.session ~policy:(bench_policy ?deadline:s.deadline ()) () in
  let plan = s.plan () in
  let chain = if s.fallback then Protocol.degradation_chain s.scheme else [] in
  let result, seconds, attempts =
    measure_session (fun () ->
        Protocol.run_session ?fault:plan ~session ~chain s.scheme env client ~query)
  in
  let m =
    { outcome_kind = "failed"; degraded_from = None; correct = None; failures = [];
      attempts; seconds; transitions = breaker_transition_count session }
  in
  match result with
  | Protocol.Served o ->
    { m with
      outcome_kind = (if o.Outcome.degraded_from = None then "served" else "degraded");
      degraded_from = o.Outcome.degraded_from;
      correct = Some (Outcome.correct o) }
  | Protocol.Unserved tried -> { m with failures = List.map (fun (scheme, _) -> scheme) tried }

(* A long-lived session: the same byzantine source across successive
   queries trips its breaker, and the next query is short-circuited
   without contacting anybody. *)
let breaker_scenario env client query =
  let s =
    { name = "breaker-short-circuit"; scheme = pm; plan = (fun () -> None);
      deadline = Some 30.0; fallback = false }
  in
  let policy =
    {
      (bench_policy ?deadline:s.deadline ()) with
      R.breaker_config =
        { R.default_breaker with R.min_samples = 2; window = 4; cooldown = 60.0 };
    }
  in
  let session = R.session ~policy () in
  let byzantine () = Some (Fault.plan ~max_retries:0 ~byzantine:[ (1, Fault.Garbage_paillier) ] []) in
  let result, seconds, attempts =
    measure_session (fun () ->
        (* Two poisoned queries open source 1's breaker ... *)
        let _ = Protocol.run_session ?fault:(byzantine ()) ~session ~chain:[] s.scheme env client ~query in
        let _ = Protocol.run_session ?fault:(byzantine ()) ~session ~chain:[] s.scheme env client ~query in
        (* ... so the third (clean!) query is refused up front. *)
        Protocol.run_session ~session ~chain:[] s.scheme env client ~query)
  in
  let outcome_kind, failures =
    match result with
    | Protocol.Served _ -> ("served", [])
    | Protocol.Unserved tried ->
      ("short-circuited", List.map (fun (_, f) -> f.Protocol.phase) tried)
  in
  ( s,
    { outcome_kind; degraded_from = None; correct = None; failures; attempts; seconds;
      transitions = breaker_transition_count session } )

let write () =
  let env, client, query = Workload.scenario ~params:Experiments.bench_params small_spec in
  let measured =
    List.map (fun s -> (s, run_scenario env client query s)) scenarios
    @ [ breaker_scenario env client query ]
  in
  Bench_util.write_record ~suite:"resilience" ~params:Experiments.record_params
    (List.concat_map (fun (s, m) -> entry_rows s m) measured)
