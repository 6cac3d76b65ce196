(* Exact order statistics over raw per-session samples.  Nothing here
   goes through log-bucket histograms: every quantile is read off the
   sorted samples themselves. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* The tail a run can support: the highest percentile that still has
   ten samples above it.  With n sorted samples that is the (n - 10)-th
   smallest, i.e. the (n - 10)/n quantile; with too few samples, the
   maximum at p100. *)
type tail = { t_value : float; t_percentile : float; t_samples : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { t_value = nan; t_percentile = nan; t_samples = 0 }
  else if n <= 10 then { t_value = a.(n - 1); t_percentile = 100.; t_samples = n }
  else
    let k = n - 11 in
    { t_value = a.(k); t_percentile = 100. *. float_of_int (k + 1) /. float_of_int n;
      t_samples = n }

(* Median of repeated timings of a batch of [iters] calls, per call. *)
let per_call_us ~iters ~batches f =
  let batch () =
    let t0 = Secmed_obs.Clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    (Secmed_obs.Clock.now () -. t0) /. float_of_int iters *. 1e6
  in
  median (List.init batches (fun _ -> batch ()))
