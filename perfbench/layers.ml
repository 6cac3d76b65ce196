(* The per-session layer breakdown, read from one session's merged
   trace.  The client lane (Chrome pid 1) holds the benchmark's own
   [bench.session] span around the layer call, the protocol attempt
   spans under it and their phase spans; on a served session the
   mediator lane (pid 2) adds the worker's [session] span.  The parts
   below add up to the client's wall time by construction, and
   whatever no span explains is kept as its own named residue. *)

module Trace = Secmed_obs.Trace
module Export = Secmed_obs.Export

type breakdown = {
  wall : float;  (** ms, the bench.session span *)
  phases : (string * float) list;  (** ms per phase name, summed over attempts *)
  unattributed : float;  (** protocol spans minus their phases *)
  sched : float;  (** client start to the mediator worker picking the session up *)
  outside : float;  (** the rest of the wall outside the protocol spans *)
  executor : float;
      (** the mediator worker's session span when served, else the
          protocol spans: the time something was busy on the session *)
  attempts : int;  (** protocol attempt spans *)
  spans : int;
}

(* Client latency minus the executor's busy time. *)
let queue_wait b = b.wall -. b.executor

let ms span = Int64.to_float (Trace.duration_ns span) /. 1e6

let lane pid (procs : Export.process list) =
  List.find_map (fun (p : Export.process) -> if p.pr_pid = pid then Some p.pr_spans else None) procs
  |> Option.value ~default:[]

let analyse (procs : Export.process list) =
  let client = lane 1 procs in
  let children parent kind =
    List.filter
      (fun (s : Trace.span) -> s.parent = Some parent && s.kind = kind)
      client
  in
  let root = List.find (fun (s : Trace.span) -> s.name = "bench.session") client in
  let protos = children root.id Trace.Protocol in
  let phases = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun (p : Trace.span) ->
      List.iter
        (fun (ph : Trace.span) ->
          if not (Hashtbl.mem phases ph.name) then order := ph.name :: !order;
          Hashtbl.replace phases ph.name
            (ms ph +. Option.value (Hashtbl.find_opt phases ph.name) ~default:0.))
        (children p.id Trace.Phase))
    protos;
  let phases = List.rev_map (fun n -> (n, Hashtbl.find phases n)) !order in
  let proto_ms = Stats.sum (List.map ms protos) in
  let wall = ms root in
  let mediator = List.find_opt (fun (s : Trace.span) -> s.name = "session") (lane 2 procs) in
  let sched =
    match mediator with
    | Some s -> Float.max 0. (Int64.to_float (Int64.sub s.start_ns root.start_ns) /. 1e6)
    | None -> 0.
  in
  {
    wall;
    phases;
    unattributed = proto_ms -. Stats.sum (List.map snd phases);
    sched;
    outside = wall -. proto_ms -. sched;
    executor = (match mediator with Some s -> ms s | None -> proto_ms);
    attempts = List.length protos;
    spans = List.fold_left (fun acc (p : Export.process) -> acc + List.length p.pr_spans) 0 procs;
  }

(* Mean of each part over a scheme's sessions — means, not medians, so
   the parts still add up to the mean wall time. *)
type table = {
  n : int;
  m_wall : float;
  m_phases : (string * float) list;
  m_unattributed : float;
  m_sched : float;
  m_outside : float;
  m_spans : float;
}

let table bs =
  let mean f = Stats.mean (List.map f bs) in
  let names =
    List.fold_left
      (fun acc b ->
        List.fold_left (fun acc (n, _) -> if List.mem n acc then acc else acc @ [ n ]) acc b.phases)
      [] bs
  in
  {
    n = List.length bs;
    m_wall = mean (fun b -> b.wall);
    m_phases =
      List.map
        (fun n -> (n, mean (fun b -> Option.value (List.assoc_opt n b.phases) ~default:0.)))
        names;
    m_unattributed = mean (fun b -> b.unattributed);
    m_sched = mean (fun b -> b.sched);
    m_outside = mean (fun b -> b.outside);
    m_spans = mean (fun b -> float_of_int b.spans);
  }

let phase_ms t name = Option.value (List.assoc_opt name t.m_phases) ~default:0.

(* [outside] names what the time outside the protocol spans is on this
   workload: wire and waits when served, the resilience wrapper
   in-process. *)
let render ~workload ~scheme ~outside ~crypto_est t =
  let buf = Buffer.create 512 in
  let line label v = Buffer.add_string buf (Printf.sprintf "    %-34s %10.3f ms\n" label v) in
  Buffer.add_string buf
    (Printf.sprintf "  layer table %s / %s: mean of %d traced sessions, wall %.3f ms\n" workload
       scheme t.n t.m_wall);
  List.iter (fun (n, v) -> line ("phase " ^ n) v) t.m_phases;
  line "protocol unattributed (residue)" t.m_unattributed;
  line "scheduler + admission wait" t.m_sched;
  line (outside ^ " (residue)") t.m_outside;
  let parts = Stats.sum (List.map snd t.m_phases) +. t.m_unattributed +. t.m_sched +. t.m_outside in
  Buffer.add_string buf (Printf.sprintf "    %-34s %10.3f ms  (wall %.3f ms)\n" "sum of parts" parts t.m_wall);
  let phases = Stats.sum (List.map snd t.m_phases) in
  Buffer.add_string buf
    (Printf.sprintf "    %-34s %10.3f ms  (inside the phases; %.3f ms of phase time is not priced crypto)\n"
       "of which crypto estimate" crypto_est (phases -. crypto_est));
  Buffer.contents buf
