(* Shared helpers for the benchmark harness: text tables, direct timing,
   a thin wrapper around Bechamel's OLS pipeline, and the one record
   every BENCH_<suite>.json file carries. *)

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n\n" title bar

let subheading title = Printf.printf "\n--- %s ---\n\n" title

(* Render rows as an aligned text table. *)
let print_table ~headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let line () =
    print_char '+';
    Array.iter
      (fun w ->
        print_string (String.make (w + 2) '-');
        print_char '+')
      widths;
    print_newline ()
  in
  let row cells =
    print_char '|';
    List.iteri (fun i cell -> Printf.printf " %-*s |" widths.(i) cell) cells;
    print_newline ()
  in
  line ();
  row headers;
  line ();
  List.iter row rows;
  line ()

(* [print_table] for experiments with a "correct" column: exits 1 after
   printing when any row reads false, so the experiment doubles as a
   check (make check-extensions). *)
let print_checked_table ~headers rows =
  print_table ~headers rows;
  let rec index i = function
    | [] -> invalid_arg "Bench_util.print_checked_table: no correct column"
    | h :: rest -> if String.equal h "correct" then i else index (i + 1) rest
  in
  let column = index 0 headers in
  if List.exists (fun row -> String.equal (List.nth row column) "false") rows then begin
    prerr_endline "FAILED: a row's correct column reads false";
    exit 1
  end

let fmt_ms seconds = Printf.sprintf "%.1f" (seconds *. 1000.0)
let fmt_bytes b =
  if b >= 1_048_576 then Printf.sprintf "%.2f MiB" (float_of_int b /. 1_048_576.0)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%d B" b

(* Direct timing: median over [runs] repetitions, on the monotonic clock
   (wall-clock steps from NTP would silently skew gettimeofday samples). *)
let time_median ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Secmed_obs.Clock.now_ns () in
        ignore (f ());
        Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0))
  in
  match List.sort compare samples with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

(* Best-of-[rounds] seconds per call, with the repetition count calibrated
   so each sample runs for at least [min_time] (keeps fast primitives well
   above timer resolution without hardcoding per-benchmark rep counts). *)
let best_time ?(rounds = 5) ?(min_time = 0.02) f =
  let sample reps =
    let t0 = Secmed_obs.Clock.now_ns () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0) /. float_of_int reps
  in
  let rec calibrate reps =
    let t = sample reps in
    if t *. float_of_int reps >= min_time || reps >= 1 lsl 20 then (reps, t)
    else calibrate (reps * 4)
  in
  let reps, first = calibrate 1 in
  let best = ref first in
  for _ = 2 to rounds do
    best := Float.min !best (sample reps)
  done;
  !best

(* Bechamel: run a grouped test and return (name, estimated ns/run). *)
let bechamel_estimates ?(quota = 0.5) tests =
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name o acc ->
      let ns =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | Some [] | None -> Float.nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let fmt_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_bechamel_table title estimates =
  subheading title;
  print_table ~headers:[ "benchmark"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; fmt_ns ns ]) estimates)

(* The benchmark record: {suite, params, rows: [{case, metric, unit,
   value}]}.  A case names what was measured, with its identifying
   parameters as key=value words ("transfer shards=4 rows=10000");
   categorical facts ride in the case name or become 0/1 metrics. *)
type row = { case : string; metric : string; unit : string; value : float }

let rows case metrics =
  List.map (fun (metric, unit, value) -> { case; metric; unit; value }) metrics

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let write_record ~suite ~params rows =
  if rows = [] then fail "BENCH_%s.json: no rows" suite;
  List.iter
    (fun r ->
      if not (Float.is_finite r.value) then
        fail "BENCH_%s.json: %s / %s is not finite" suite r.case r.metric)
    rows;
  let module Json = Secmed_obs.Json in
  let row r =
    Json.Obj
      [
        ("case", Json.Str r.case);
        ("metric", Json.Str r.metric);
        ("unit", Json.Str r.unit);
        ("value", Json.Float r.value);
      ]
  in
  let json =
    Json.Obj
      [
        ("suite", Json.Str suite);
        ("params", Json.Obj params);
        ("rows", Json.List (List.map row rows));
      ]
  in
  let path = Printf.sprintf "BENCH_%s.json" suite in
  let contents = Json.to_string_pretty json ^ "\n" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows)

(* The emitter's load-bearing invariants, each "every row of [metric]
   reads [value]", checked on the written record (so a failing run still
   leaves its numbers behind): any violation exits non-zero. *)
let require ~suite rows invariants =
  let holds (metric, value, _) =
    List.for_all (fun r -> r.metric <> metric || r.value = value) rows
  in
  match List.filter (fun i -> not (holds i)) invariants with
  | [] -> ()
  | violated ->
    fail "BENCH_%s.json: violated: %s" suite
      (String.concat "; " (List.map (fun (_, _, what) -> what) violated))
