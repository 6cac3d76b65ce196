(** Endpoint-parametric message delivery.

    Every protocol message a driver emits goes through {!deliver}, which
    unifies the three things that must stay in lockstep per message:

    - the {b transcript} entry ([Transcript.record]) — the paper's
      communication accounting;
    - the {b fault plan} interception point ([Fault.inject]) — simulated
      channel faults;
    - the {b transport hop} — when an {!endpoint} is attached, the bytes
      actually cross a socket.

    The transport model is {e deterministic replicated execution}: in a
    distributed run every process (client, mediator, each datasource)
    derives the identical scenario from the shared seed and executes the
    same driver code, so each replica can compute every message locally.
    The transport only materialises a message on the wire when this
    process plays its sender or its receiver; a receiver checks that the
    bytes received equal the bytes it computed, so real corruption on the
    wire surfaces as a typed {!Fault.Fault_detected} at exactly the
    delivery point a simulated [Corrupt] would use.  (This distributes
    {e communication}, not {e trust} — see DESIGN.md §11 for what the
    transport does and does not protect.)

    [Secmed_net] supplies TCP transports; the default endpoint is
    {!Inproc}, which performs no I/O and keeps the thunk-never-forced
    fast path of the fault layer. *)

(* One process's view of a live transport is {!transport} below, as
   closures so this library stays below [Secmed_net].  [seq] is the
   global per-attempt delivery index — identical across replicas because
   they execute the same deliver calls in the same order — used to
   discard duplicated or stale frames. *)

(** Streamed variant of a delivery: the message as (row index, bytes)
    entries instead of one payload.  [send_rows] chunks and transmits
    (a sharded sender transmits only its partition); [recv_rows] pulls
    chunk frames and verifies each entry against the locally recomputed
    [expect] list incrementally — the received relation is never
    materialised as one string.  Both raise typed faults like
    {!transport.recv}. *)
type rows_transport = {
  send_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    (int * string) list ->
    unit;
  recv_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    expect:(int * string) list ->
    unit;
}

type transport = {
  role : Transcript.party;  (** the party this process plays *)
  send :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    string ->
    unit;
  recv :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    string;
      (** Must return the received payload bytes; raises on transport
          failure (timeout, closed stream), ideally as a typed
          {!Fault.Fault_detected}. *)
  rows : rows_transport;  (** the streamed path of {!deliver_rows} *)
}

type endpoint = Inproc | Remote of transport

type t

val make : ?endpoint:endpoint -> ?fault:Fault.plan -> Transcript.t -> t
(** A link bound to one protocol run's transcript.  Default endpoint is
    {!Inproc} (today's direct calls). *)

val transcript : t -> Transcript.t
val fault : t -> Fault.plan option
val endpoint : t -> endpoint
val is_remote : t -> bool

val seq : t -> int
(** Deliveries performed so far on this link (the next message's
    sequence number). *)

val deliver :
  t ->
  phase:string ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  ?guard:bool ->
  ?size:int ->
  (unit -> string) ->
  unit
(** Record one protocol message.  [~guard:false] exempts the message
    from fault-plan interception (audit-only messages such as the
    commutative canary, which predate the fault layer's rule matching)
    while still crossing the transport.  [size] is the declared transcript size
    in bytes (defaults to the payload length); when it exceeds the
    payload length the wire frame is zero-padded up to it, so socket
    byte counts match transcript totals even for messages whose modelled
    size includes unmaterialised bytes.  The payload thunk is never
    forced on a fault-free in-process link.

    On a remote link, when this process is the sender the payload is
    sent; when it is the receiver the frame is awaited and compared
    against the locally computed payload (mismatch ⇒
    {!Fault.Fault_detected} blamed on the receiving party); otherwise
    only the sequence number advances. *)

val deliver_rows :
  t ->
  phase:string ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  ?guard:bool ->
  size:int ->
  (unit -> string list) ->
  unit
(** Record one row-wise protocol message.  Semantically identical to
    {!deliver} of the concatenated rows (same transcript entry, same
    sequence slot, same padding to [size]) — but on a fault-free remote
    link the message travels as bounded chunks of (index, bytes)
    entries, incrementally verified at the receiver, so neither side
    materialises the whole relation.  In-process or with a fault plan
    active the rows collapse to one payload and the scalar path runs, preserving
    fault-injection semantics exactly; since a fault plan is part of the
    shared session announcement, every replica takes the same branch. *)
