(** The leaf processes: datasource daemons and the remote client.

    Both are replicas in the deterministic-execution model — they build
    the same environment from the same seed as the mediator, run the
    same drivers, and the transport only carries the messages each party
    actually plays a side of (plus the session-control frames). *)

open Secmed_mediation
open Secmed_core

exception Refused of string
(** The mediator (or a datasource) turned the connection away with a
    typed [Busy] frame — at capacity (admission-control backpressure)
    or a scenario digest mismatch.  The payload is the peer's reason.
    Distinct from {!Io.Transport_error} so a load generator can count
    backpressure separately from broken links. *)

exception Draining of string
(** The peer refused a new session with a typed [Draining] frame: it is
    shutting down gracefully.  Distinct from {!Refused} ([Busy]) — a
    draining process will not come back, so the right reaction is to
    retry against its restarted successor, not to back off. *)

(** A peer's answer to a [Ping] probe. *)
type health = {
  h_role : Secmed_mediation.Transcript.party;
  h_draining : bool;
  h_active : int;  (** sessions currently in flight at the peer *)
}

val source :
  id:int ->
  env:Env.t ->
  client:Env.client ->
  scenario:string ->
  listen_fd:Unix.file_descr ->
  ?shard:int * int ->
  ?io_timeout:float ->
  ?drain_deadline:float ->
  unit ->
  unit
(** Run datasource [id] as a daemon: accept mediator connections (a
    thread per connection — a pooling mediator dials several),
    multiplex concurrent sessions over each (a thread per session),
    and per [Session_start] run this source's replica of the attempt and
    report how it ended.  [shard] (default [(0, 1)]) makes this daemon
    shard j of k of the logical source: it transmits only its row
    partition of streamed deliveries (shard 0 alone speaks the scalar
    frames), and [scenario] must then be the matching {!Shard.digest}.  The session's fault spec is parsed once, so a
    [times]-bounded rule burns down across attempts exactly as it does
    in-process.  Returns when the listening socket is closed.

    [Ping] probes are answered with a [Health] frame before any
    handshake.  A [Drain] frame carrying the right scenario digest (or
    SIGTERM: the daemon installs its own handler) flips it into draining:
    new connections are refused with [Draining], brand-new sessions on
    existing pooled connections are refused with a typed
    [St_failed]/"draining" report (the mediator fails them over to a
    standby), in-flight sessions finish under [drain_deadline] (default
    30s), and the daemon then returns cleanly. *)

(** What a remote query yields on the client side.  [result] is
    reconstructed from the client replica's own outcomes plus the
    mediator's [Session_result] verdict; [link_stats] are the mediator's
    per-counterpart payload byte counters [(party, sent, received)];
    [socket_bytes] the raw (framing-included) bytes this client moved. *)
type response = {
  result : Protocol.session_result;
  epochs : int;  (** attempts broadcast across the whole session *)
  link_stats : (Transcript.party * int * int) list;
  socket_bytes : int * int;  (** (received, sent) on the client socket *)
  remote_spans : Trace_wire.remote list;
      (** span batches forwarded by the mediator (its own plus every
          source's), in arrival order; [[]] unless [trace] was set *)
}

val run :
  host:string ->
  port:int ->
  scenario:string ->
  scheme:string ->
  query:string ->
  ?fault_spec:string ->
  ?deadline:float ->
  ?fallback:bool ->
  ?io_timeout:float ->
  ?trace:bool ->
  Env.t ->
  Env.client ->
  response
(** Connect to a mediator, pose one query, and play the client replica
    for every attempt the mediator announces.  With [trace] (default
    off) the query asks every process to collect spans and ship them
    back; merge [remote_spans] with the caller's own collector via
    {!Trace_wire.merge}.  Raises {!Refused} when the mediator turns the
    connection away ([Busy]: at capacity, or its scenario digest
    disagrees), {!Io.Transport_error} when the mediator is unreachable
    or the link dies mid-session. *)

val stats : host:string -> port:int -> ?io_timeout:float -> unit -> string
(** Ask a running mediator for its live stats snapshot (JSON text, the
    [Stats] frame payload).  Answered without admission control, so it
    works against a server at capacity. *)

val ping : host:string -> port:int -> ?io_timeout:float -> unit -> health
(** One liveness probe against a mediator or datasource daemon.
    Answered before admission and before any handshake; raises
    {!Io.Transport_error} when the peer is unreachable. *)

val drain :
  host:string -> port:int -> scenario:string -> ?deadline:float -> ?io_timeout:float ->
  unit -> unit
(** Ask a peer to drain gracefully.  [scenario] must be the peer's
    {!Scenario.digest} — the drain frame is authenticated by the same
    shared-seed credential as the session handshake.  [deadline] [> 0]
    overrides the peer's default drain deadline.  Raises {!Refused} when
    the digest does not match. *)
