(* Sampling a process from outside through /proc/<pid>: cumulative
   user+system CPU and the resident-set high-water mark.  The forked
   daemons are read this way, so the deployment is measured without
   asking it anything. *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None

(* /proc reports CPU in USER_HZ ticks, which Linux fixes at 100/s for
   the /proc interface whatever the kernel's internal HZ. *)
let ticks_per_second = 100.

(* Fields after the parenthesised command name (which may itself hold
   spaces): state is field 3, utime 14, stime 15. *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> 0.
    | Some i ->
      let rest =
        String.sub s (i + 2) (String.length s - i - 2)
        |> String.split_on_char ' '
        |> Array.of_list
      in
      if Array.length rest < 13 then 0.
      else
        (float_of_string rest.(11) +. float_of_string rest.(12)) /. ticks_per_second)

let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          String.sub line (i + 1) (String.length line - i - 1)
          |> String.trim |> String.split_on_char ' ' |> List.hd |> int_of_string_opt
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:0

let hwm_kb pid = status_kb pid "VmHWM"

(* This process's own CPU, at getrusage resolution. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
