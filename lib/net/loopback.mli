(** A complete distributed deployment on 127.0.0.1, for tests and
    benches inside [dune runtest].

    {!with_cluster} forks one process per datasource daemon and one for
    the mediator server, all on pre-bound ephemeral ports (no races, no
    fixed port collisions); the calling process then plays the remote
    client via {!query}.  The environment is built {e before} forking,
    so every process replays the identical scenario by construction —
    the same guarantee the digest handshake enforces for independently
    started daemons.

    Chaos plans, when given, interpose a {!Chaos} proxy on the named
    source's mediator link; the proxy threads run in the parent so the
    plan's event log stays readable by the test. *)

open Secmed_mediation
open Secmed_core

type cluster

val env : cluster -> Env.t
val client_of : cluster -> Env.client
val canonical_query : cluster -> string
val scenario : cluster -> string
val port : cluster -> int

val chaos_events : cluster -> int -> Fault.event list
(** What the proxy on this source's link actually did to the stream. *)

val with_cluster :
  ?params:Env.params ->
  ?policy:Resilience.policy ->
  ?chaos:(int * Fault.plan) list ->
  ?max_sessions:int ->
  ?io_timeout:float ->
  ?source_conns:int ->
  ?workers:int ->
  ?standbys:int ->
  ?shards:int ->
  ?health_interval:float ->
  ?drain_deadline:float ->
  spec:Workload.spec ->
  (cluster -> 'a) ->
  'a
(** Children are killed (and proxies stopped) however the callback
    ends.  [source_conns]/[workers]/[health_interval]/[drain_deadline]
    forward to {!Server.create}.  [standbys] (default 0) forks that
    many extra replica daemons per shard — deterministic twins the
    mediator's pool lists as failover candidates behind the primary;
    chaos proxies, when given, interpose on the primary (shard 0,
    replica 0) only.  [shards] (default 1) splits each source into that
    many partitioned daemons: streamed deliveries arrive as k merged
    chunk streams, and results must be bit-identical to the unsharded
    run (DESIGN.md §16).  Like every {!Server.serve}, the mediator
    drains on SIGTERM, so a test can drain-restart it like a real
    deployment would. *)

val source_pid : cluster -> ?shard:int -> id:int -> replica:int -> unit -> int
(** The daemon process serving [replica] (0 = primary) of source [id]
    (shard 0 by default) — for tests that SIGKILL a specific process. *)

val mediator_pid : cluster -> int

val target : cluster -> Loadgen.target
(** The cluster's mediator as a {!Loadgen} target (the parent process
    plays the whole client fleet). *)

val query :
  cluster ->
  ?fault_spec:string ->
  ?deadline:float ->
  ?fallback:bool ->
  ?io_timeout:float ->
  ?trace:bool ->
  scheme:string ->
  unit ->
  Peer.response
(** One remote query from the parent process (a fresh client connection
    per call).  [trace] forwards to {!Peer.run}: every process collects
    spans and the response carries the merged-ready batches. *)
