open Secmed_mediation
open Secmed_core
module Mux = Endpoint.Mux
module Obs = Secmed_obs

exception Refused of string
exception Draining of string

type health = { h_role : Transcript.party; h_draining : bool; h_active : int }

(* ------------------------------------------------------------------ *)
(* Datasource daemon *)

let parse_fault fault_spec =
  if String.equal fault_spec "" then None
  else
    match Fault.of_spec fault_spec with
    | Ok p -> Some p
    | Error _ -> None (* the mediator validated it; fail open rather than diverge *)

let source_session ~role ~shard ~env ~client ~io_timeout mux session =
  let route =
    Endpoint.plain_route
      ~send:(fun f -> Mux.send mux f)
      ~next:(fun ~timeout -> Mux.next mux ~session ~timeout)
  in
  let fault = ref None in
  let parsed = ref false in
  let rec loop () =
    match Mux.next mux ~session ~timeout:120. with
    | Frame.Session_start { epoch; attempt; scheme; query; fault_spec; trace_id; trace_parent; _ }
      ->
      if not !parsed then begin
        (* One plan for the whole session: rule [times] counters burn
           down across attempts, mirroring the mediator's single plan. *)
        fault := parse_fault fault_spec;
        parsed := true
      end;
      let run_attempt () =
        Endpoint.run_replica ~role ~fault:!fault ~session ~epoch ~attempt ~scheme ~query
          ~io_timeout ~shard ~route env client
      in
      let status, batch =
        if String.equal trace_id "" then (fst (run_attempt ()), None)
        else begin
          (* A fresh collector per attempt, bound to this session's
             thread only: concurrent sessions on the shared mux never
             interleave spans.  The batch ships after the Report so the
             mediator's verdict path is never blocked on span traffic. *)
          let collector = Obs.Trace.create () in
          let status, _ = Obs.Trace.with_collector collector run_attempt in
          (status, Some (Trace_wire.payload_of collector))
        end
      in
      (try
         Mux.send mux (Frame.Report { session; epoch; status });
         match batch with
         | Some payload ->
           Mux.send mux
             (Frame.Span_batch { session; party = role; parent = trace_parent; payload })
         | None -> ()
       with Io.Transport_error _ -> ());
      loop ()
    | Frame.Session_end _ -> Mux.unsubscribe mux session
    | Frame.Msg _ | Frame.Abort _ | Frame.Report _ ->
      (* Leftovers of an attempt that ended on this side first. *)
      loop ()
    | _ -> loop ()
    | exception Io.Transport_error _ -> Mux.unsubscribe mux session
  in
  loop ()

(* The daemon's drain state.  [sd_draining] is flipped by only
   idempotent field writes so the SIGTERM handler may call it at any
   safe point; [sd_active] counts live session threads across every
   pooled connection. *)
type source_drain = {
  sd_mu : Mutex.t;
  mutable sd_active : int;
  mutable sd_draining : bool;
  mutable sd_deadline_at : float;
}

let source ~id ~env ~client ~scenario ~listen_fd ?(shard = (0, 1)) ?(io_timeout = 10.)
    ?(drain_deadline = 30.) () =
  let role = Transcript.Source id in
  let sd =
    { sd_mu = Mutex.create (); sd_active = 0; sd_draining = false; sd_deadline_at = infinity }
  in
  let begin_drain deadline =
    if not sd.sd_draining then begin
      sd.sd_deadline_at <- Unix.gettimeofday () +. deadline;
      sd.sd_draining <- true
    end
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> begin_drain drain_deadline));
  let serve_conn conn =
    match Frame.decode (Io.recv_frame conn) with
    | Frame.Ping ->
      let h_active = Mutex.protect sd.sd_mu (fun () -> sd.sd_active) in
      (try
         Io.send_frame conn
           (Frame.encode (Frame.Health { h_role = role; h_draining = sd.sd_draining; h_active }))
       with Io.Transport_error _ -> ());
      Io.close conn
    | Frame.Drain { scenario = s; deadline } ->
      (* Same credential as the Hello handshake: only a process built
         from the shared seed can present the digest. *)
      (try
         if String.equal s scenario then begin
           begin_drain (if deadline > 0. then deadline else drain_deadline);
           Io.send_frame conn (Frame.encode Frame.Drain_ok)
         end
         else
           Io.send_frame conn
             (Frame.encode (Frame.Busy "drain refused: scenario digest mismatch"))
       with Io.Transport_error _ -> ());
      Io.close conn
    | Frame.Hello { role = Transcript.Mediator; scenario = s }
      when String.equal s scenario && sd.sd_draining ->
      Io.send_frame conn (Frame.encode (Frame.Draining "source is draining"));
      Io.close conn
    | Frame.Hello { role = Transcript.Mediator; scenario = s } when String.equal s scenario ->
      Io.send_frame conn (Frame.encode (Frame.Hello_ok { scenario }));
      (* Sessions wait with their own timeouts; the shared socket must
         tolerate idle stretches between queries. *)
      Io.set_timeout conn 0.;
      let mux = Mux.create conn in
      (* Every Session_start is announced on the control queue, and a
         resilient session announces each attempt: exactly one handler
         thread per session must result. *)
      let live_mu = Mutex.create () in
      let live = Hashtbl.create 8 in
      let rec control () =
        match Mux.next_control mux ~timeout:0. with
        | Frame.Session_start { session; epoch; _ } ->
          (* The mux already parked this frame (and anything racing in
             behind it) on the session's own queue; this copy is just
             the announcement. *)
          let fresh =
            Mutex.protect live_mu (fun () ->
                if Hashtbl.mem live session then false
                else begin
                  Hashtbl.replace live session ();
                  true
                end)
          in
          if fresh then begin
            if sd.sd_draining then begin
              (* A brand-new session on a pooled connection that predates
                 the drain: refuse it with a typed report (the mediator
                 marks this replica down and retries on a standby) rather
                 than admitting work the deadline may cut short. *)
              Mutex.protect live_mu (fun () -> Hashtbl.remove live session);
              Mux.unsubscribe mux session;
              try
                Mux.send mux
                  (Frame.Report
                     { session; epoch;
                       status =
                         Frame.St_failed
                           { Fault.phase = "admission"; party = role; reason = "draining" } })
              with Io.Transport_error _ -> ()
            end
            else begin
              Mutex.protect sd.sd_mu (fun () -> sd.sd_active <- sd.sd_active + 1);
              ignore
                (Thread.create
                   (fun () ->
                     Fun.protect
                       ~finally:(fun () ->
                         Secmed_crypto.Counters.release ();
                         Mutex.protect live_mu (fun () -> Hashtbl.remove live session);
                         Mutex.protect sd.sd_mu (fun () -> sd.sd_active <- sd.sd_active - 1))
                       (fun () -> source_session ~role ~shard ~env ~client ~io_timeout mux session))
                   ()
                  : Thread.t)
            end
          end;
          control ()
        | _ -> control ()
        | exception Io.Transport_error _ -> Mux.close mux
      in
      control ()
    | Frame.Hello _ ->
      Io.send_frame conn
        (Frame.encode (Frame.Busy "scenario digest mismatch (wrong workload or parameters)"));
      Io.close conn
    | _ -> Io.close conn
    | exception (Io.Transport_error _ | Wire.Malformed _) -> Io.close conn
  in
  (* A daemon waits for its mediator indefinitely; [io_timeout] guards
     per-operation I/O once a connection exists, not the accept.  Each
     accepted connection gets its own thread: a mediator with a
     connection pool dials this daemon [source_conns] times, and every
     pooled link must be serviceable at once.  The loop ticks on a
     short select (an accept with no timeout would pin a drained daemon
     to its socket) and exits once draining and idle — or past the
     drain deadline. *)
  let rec accept_loop () =
    if
      sd.sd_draining
      && (Mutex.protect sd.sd_mu (fun () -> sd.sd_active) = 0
         || Unix.gettimeofday () > sd.sd_deadline_at)
    then ()
    else begin
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ -> (
        match Io.accept listen_fd with
        | conn ->
          ignore (Thread.create serve_conn conn : Thread.t);
          accept_loop ()
        | exception Io.Transport_error _ -> ())
    end
  in
  accept_loop ();
  if sd.sd_draining then (try Unix.close listen_fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Remote client *)

type response = {
  result : Protocol.session_result;
  epochs : int;
  link_stats : (Transcript.party * int * int) list;
  socket_bytes : int * int;
  remote_spans : Trace_wire.remote list;
}

let failure_of_wire attempts (f : Fault.failure) =
  { Protocol.phase = f.Fault.phase; party = f.Fault.party; reason = f.Fault.reason; attempts }

let run ~host ~port ~scenario ~scheme ~query ?(fault_spec = "") ?(deadline = 0.)
    ?(fallback = true) ?(io_timeout = 10.) ?(trace = false) env client =
  let conn = Io.connect ~timeout:io_timeout ~host ~port () in
  Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
  Io.send_frame conn (Frame.encode (Frame.Hello { role = Transcript.Client; scenario }));
  (match Frame.decode (Io.recv_frame conn) with
  | Frame.Hello_ok { scenario = s } when String.equal s scenario -> ()
  | Frame.Hello_ok _ -> raise (Io.Transport_error "scenario digest mismatch with the mediator")
  | Frame.Busy reason -> raise (Refused reason)
  | Frame.Draining reason -> raise (Draining reason)
  | f -> raise (Io.Transport_error ("unexpected " ^ Frame.tag_name f ^ " in handshake")));
  Io.send_frame conn
    (Frame.encode (Frame.Query { scheme; query; fault_spec; deadline; fallback; trace }));
  let route =
    Endpoint.plain_route
      ~send:(fun f -> Io.send_frame conn (Frame.encode f))
      ~next:(fun ~timeout ->
        Io.set_timeout conn timeout;
        Frame.decode (Io.recv_frame conn))
  in
  let fault = ref None in
  let parsed = ref false in
  let outcomes = Hashtbl.create 4 in
  let last_epoch = ref 0 in
  let batches = ref [] in
  let finish result =
    let socket_bytes = (Io.bytes_in conn, Io.bytes_out conn) in
    let remote_spans = List.rev !batches in
    match result with
    | Frame.W_served { w_scheme; w_attempts; w_degraded; w_link_stats } ->
      let outcome =
        match Hashtbl.find_opt outcomes w_scheme with
        | Some o -> o
        | None ->
          raise
            (Io.Transport_error
               (Printf.sprintf "mediator served %s but this replica holds no outcome for it"
                  w_scheme))
      in
      let outcome =
        match w_degraded with
        | None -> outcome
        | Some (from_scheme, reason) -> Outcome.mark_degraded outcome ~from_scheme ~reason
      in
      {
        result = Protocol.Served outcome;
        epochs = w_attempts;
        link_stats = w_link_stats;
        socket_bytes;
        remote_spans;
      }
    | Frame.W_unserved tried ->
      {
        result =
          Protocol.Unserved
            (List.map (fun (s, f, attempts) -> (s, failure_of_wire attempts f)) tried);
        epochs = !last_epoch;
        link_stats = [];
        socket_bytes;
        remote_spans;
      }
  in
  (* Between attempts the mediator may be backing off, running another
     session, or re-dialing a source: wait generously, not forever. *)
  let idle_timeout = Float.max 60. (io_timeout *. 6.) in
  let rec serve_loop () =
    Io.set_timeout conn idle_timeout;
    match Frame.decode (Io.recv_frame conn) with
    | Frame.Session_start
        { session; epoch; attempt; scheme = sname; query = q; fault_spec = fs; _ } ->
      last_epoch := epoch;
      if not !parsed then begin
        fault := parse_fault fs;
        parsed := true
      end;
      let status, outcome =
        Endpoint.run_replica ~role:Transcript.Client ~fault:!fault ~session ~epoch ~attempt
          ~scheme:sname ~query:q ~io_timeout ~route env client
      in
      (match outcome with
      | Some o -> Hashtbl.replace outcomes o.Outcome.scheme o
      | None -> ());
      Io.send_frame conn (Frame.encode (Frame.Report { session; epoch; status }));
      serve_loop ()
    | Frame.Session_result { result; _ } -> finish result
    | Frame.Busy reason -> raise (Refused reason)
    | Frame.Draining reason -> raise (Draining reason)
    | Frame.Span_batch { party; parent; payload; _ } ->
      batches := { Trace_wire.rm_party = party; rm_parent = parent; rm_payload = payload }
                 :: !batches;
      serve_loop ()
    | Frame.Msg _ | Frame.Abort _ | Frame.Report _ | Frame.Session_end _ -> serve_loop ()
    | f -> raise (Io.Transport_error ("unexpected " ^ Frame.tag_name f))
  in
  serve_loop ()

(* ------------------------------------------------------------------ *)
(* Ops client *)

let stats ~host ~port ?(io_timeout = 10.) () =
  let conn = Io.connect ~timeout:io_timeout ~host ~port () in
  Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
  Io.send_frame conn (Frame.encode Frame.Stats_request);
  match Frame.decode (Io.recv_frame conn) with
  | Frame.Stats { payload } -> payload
  | Frame.Busy reason -> raise (Refused reason)
  | f -> raise (Io.Transport_error ("unexpected " ^ Frame.tag_name f ^ " to a stats request"))

let ping ~host ~port ?(io_timeout = 10.) () =
  let conn = Io.connect ~timeout:io_timeout ~host ~port () in
  Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
  Io.send_frame conn (Frame.encode Frame.Ping);
  match Frame.decode (Io.recv_frame conn) with
  | Frame.Health { h_role; h_draining; h_active } -> { h_role; h_draining; h_active }
  | Frame.Busy reason -> raise (Refused reason)
  | f -> raise (Io.Transport_error ("unexpected " ^ Frame.tag_name f ^ " to a ping"))

let drain ~host ~port ~scenario ?(deadline = 0.) ?(io_timeout = 10.) () =
  let conn = Io.connect ~timeout:io_timeout ~host ~port () in
  Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
  Io.send_frame conn (Frame.encode (Frame.Drain { scenario; deadline }));
  match Frame.decode (Io.recv_frame conn) with
  | Frame.Drain_ok -> ()
  | Frame.Busy reason -> raise (Refused reason)
  | f -> raise (Io.Transport_error ("unexpected " ^ Frame.tag_name f ^ " to a drain request"))
