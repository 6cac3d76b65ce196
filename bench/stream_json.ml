(* BENCH_stream.json: the data-axis scaling story (DESIGN.md §16).
   Three kinds of case:

   - "transfer": raw chunked transfer through the credit-flow-controlled
     send_rows/recv_rows pair over real socketpairs, swept across row
     counts (and a sharded k=4 run at the top scale).  The point of the
     sweep is the high-water column: the receiver's merge window must
     stay bounded by one chunk per shard while the relation grows by
     1,000x — memory flat in rows, measured, not asserted.
   - "protocol": das/commutative/pm served by a real forked cluster at
     growing per-source row counts; records the client-side stream
     high-water mark next to the transcript volume so the same flatness
     is visible end to end.
   - "io_alloc": allocation per received frame on the reused
     reserve/commit receive path against the naive
     fresh-buffer-per-read baseline it replaced.

   The run fails unless every transfer stayed within its merge-window
   bound and drained its chunk backlog to 0, and the reused receive
   path allocated less than the naive one. *)

open Secmed_mediation
open Secmed_core
open Secmed_net
module Obs = Secmed_obs

let timed f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since:t0))

(* ------------------------------------------------------------------ *)
(* Section "stream": transport-level transfer, unsharded and sharded. *)

let socket_pair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (Io.of_fd ~peer:"bench-a" a, Io.of_fd ~peer:"bench-b" b)

let make_leg () =
  let a, b = socket_pair () in
  let ma = Endpoint.Mux.create a and mb = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe ma 7;
  Endpoint.Mux.subscribe mb 7;
  let route m =
    Endpoint.plain_route
      ~send:(Endpoint.Mux.send m)
      ~next:(fun ~timeout -> Endpoint.Mux.next m ~session:7 ~timeout)
  in
  ((ma, mb), route ma, route mb)

let transport_for ~role ~shard ~counterpart route =
  Endpoint.transport ~role ~session:7 ~epoch:(fun () -> 1) ~io_timeout:30.
    ~route_of:(fun p -> if Transcript.party_equal p counterpart then Some route else None)
    ~shard ()

let row_bytes = 256

let rows_fixture n =
  List.init n (fun i -> (i, String.init row_bytes (fun j -> Char.chr ((i + j) mod 256))))

let peak name = Obs.Hwm.peak (Obs.Hwm.region name)

let transfer ~shards:k ~rows:n =
  Obs.Hwm.reset ();
  let legs = List.init k (fun _ -> make_leg ()) in
  let muxes = List.concat_map (fun ((ma, mb), _, _) -> [ ma; mb ]) legs in
  Fun.protect ~finally:(fun () -> List.iter Endpoint.Mux.close muxes) @@ fun () ->
  let rows = rows_fixture n in
  let size = Stream.total_bytes rows in
  let senders =
    List.mapi
      (fun j ((_, _), s_route, _) ->
        let tr =
          transport_for ~role:(Transcript.Source 1) ~shard:(j, k)
            ~counterpart:Transcript.Mediator s_route
        in
        Thread.create
          (fun () ->
            tr.Link.rows.Link.send_rows ~phase:"bench" ~seq:0
              ~sender:(Transcript.Source 1) ~receiver:Transcript.Mediator ~label:"B"
              ~size rows)
          ())
      legs
  in
  let receiver_route =
    match List.map (fun ((_, _), _, r) -> r) legs with
    | [ r ] -> r
    | r0 :: _ as all ->
      {
        Endpoint.r_send = (fun f -> List.iter (fun r -> r.Endpoint.r_send f) all);
        r_next = r0.Endpoint.r_next;
        r_sub = Some (Array.of_list all);
      }
    | [] -> invalid_arg "transfer: shards must be >= 1"
  in
  let receiver =
    transport_for ~role:Transcript.Mediator ~shard:(0, 1)
      ~counterpart:(Transcript.Source 1) receiver_route
  in
  let (), seconds =
    timed (fun () ->
        receiver.Link.rows.Link.recv_rows ~phase:"bench" ~seq:0
          ~sender:(Transcript.Source 1) ~receiver:Transcript.Mediator ~label:"B" ~size
          ~expect:rows)
  in
  List.iter Thread.join senders;
  let pending = peak "stream.pending" in
  (* One in-flight chunk per shard plus one max-sized row: the invariant
     the whole memory claim rests on. *)
  let bound = k * (Stream.default_chunk_bytes + row_bytes) in
  Bench_util.rows
    (Printf.sprintf "transfer shards=%d rows=%d" k n)
    [
      ("row_bytes", "B", float_of_int row_bytes);
      ("total_bytes", "B", float_of_int size);
      ("seconds", "s", seconds);
      ("rows_per_s", "1/s", float_of_int n /. seconds);
      ("hwm_pending_peak", "B", float_of_int pending);
      ("pending_bound", "B", float_of_int bound);
      ("bounded", "0/1", if pending > 0 && pending <= bound then 1. else 0.);
      ("hwm_wire_peak", "B", float_of_int (peak "wire.stream"));
      ("hwm_send_peak", "B", float_of_int (peak "io.send"));
      ("backlog_after", "count", float_of_int (Endpoint.stream_backlog ()));
    ]

let stream_section ~smoke =
  let scales = if smoke then [ 100; 1_000; 10_000 ] else [ 100; 1_000; 10_000; 100_000 ] in
  let top = List.fold_left max 0 scales in
  List.concat_map (fun n -> transfer ~shards:1 ~rows:n) scales
  @ transfer ~shards:4 ~rows:top

(* ------------------------------------------------------------------ *)
(* Section "protocol_stream": the same flatness, end to end. *)

let spec_for rows =
  {
    Workload.default with
    rows_left = rows;
    rows_right = rows;
    distinct_left = 8;
    distinct_right = 8;
    overlap = 4;
    extra_attrs = 1;
    seed = 2016;
  }

let protocol_schemes = [ "das"; "commutative"; "pm" ]

let protocol_entry c ~rows name =
  Obs.Hwm.reset ();
  let response, seconds = timed (fun () -> Loopback.query c ~scheme:name ()) in
  let outcome =
    match response.Peer.result with
    | Protocol.Served o -> o
    | Protocol.Unserved _ -> failwith (name ^ ": unserved over loopback")
  in
  let tr = outcome.Outcome.transcript in
  Bench_util.rows
    (Printf.sprintf "protocol scheme=%s rows_per_source=%d" name rows)
    [
      ("seconds", "s", seconds);
      ("messages", "count", float_of_int (Transcript.message_count tr));
      ("bytes", "B", float_of_int (Transcript.total_bytes tr));
      ("epochs", "count", float_of_int response.Peer.epochs);
      (* Client-side merge window: the bench process is the client, so
         this is the client replica's own stream high-water mark. *)
      ("hwm_pending_peak", "B", float_of_int (peak "stream.pending"));
      ("hwm_wire_peak", "B", float_of_int (peak "wire.stream"));
    ]

let protocol_section ~smoke =
  let scales = if smoke then [ 16; 128 ] else [ 16; 128; 1024 ] in
  List.concat_map
    (fun rows ->
      Loopback.with_cluster ~params:Experiments.bench_params ~spec:(spec_for rows)
      @@ fun c -> List.concat_map (protocol_entry c ~rows) protocol_schemes)
    scales

(* ------------------------------------------------------------------ *)
(* Section "io_alloc": reused receive buffer vs fresh-buffer baseline. *)

let frame_bytes = 4096
let batch = 8

(* Frames are pre-encoded and pushed with send_raw so the measured
   loop's allocations are (almost) all on the receive side. *)
let alloc_run ~frames make_recv =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Io.of_fd ~peer:"alloc-send" a in
  Fun.protect
    ~finally:(fun () ->
      Io.close ca;
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let recv = make_recv b in
  let encoded = Wire.frame (String.make frame_bytes 'x') in
  (* Warm up both ends (grow the write buffer, first-read setup). *)
  Io.send_raw ca encoded;
  recv 1;
  (* Gc.allocated_bytes, not minor_words: the buffers at stake (64 KiB
     scratch, 4 KiB frame bodies) exceed Max_young_wosize and are
     allocated directly on the major heap. *)
  let before = Gc.allocated_bytes () in
  let rec go remaining =
    if remaining > 0 then begin
      let n = min batch remaining in
      for _ = 1 to n do
        Io.send_raw ca encoded
      done;
      recv n;
      go (remaining - n)
    end
  in
  go frames;
  let bytes = Gc.allocated_bytes () -. before in
  bytes /. float_of_int frames

(* The shipped path: Io reads land in the reassembly buffer via
   Wire.Stream.reserve/commit; one conn, one persistent buffer. *)
let reused_recv fd =
  let conn = Io.of_fd ~peer:"alloc-recv" fd in
  fun n ->
    for _ = 1 to n do
      ignore (Io.recv_frame conn)
    done

(* The old shape: a fresh scratch buffer per read, copied into the
   stream as a string. *)
let naive_recv fd =
  let s = Wire.Stream.create () in
  let rec take missing =
    if missing = 0 then 0
    else
      match Wire.Stream.next_frame s with
      | Some _ -> take (missing - 1)
      | None -> missing
  in
  fun n ->
    let rec go missing =
      let missing = take missing in
      if missing > 0 then begin
        let scratch = Bytes.create 65536 in
        let got = Unix.read fd scratch 0 65536 in
        Wire.Stream.feed s (Bytes.sub_string scratch 0 got);
        go missing
      end
    in
    go n

let io_alloc_section ~smoke =
  let frames = if smoke then 512 else 4096 in
  let reused = alloc_run ~frames reused_recv in
  let naive = alloc_run ~frames naive_recv in
  Bench_util.rows "io_alloc"
    [
      ("frames", "count", float_of_int frames);
      ("frame_bytes", "B", float_of_int frame_bytes);
      ("alloc_bytes_per_frame_reused", "B", reused);
      ("alloc_bytes_per_frame_naive", "B", naive);
      ("naive_over_reused", "x", naive /. Float.max reused 1.);
      ("reused_cheaper", "0/1", if reused < naive then 1. else 0.);
    ]

(* ------------------------------------------------------------------ *)

let write ?(smoke = false) () =
  let rows = stream_section ~smoke @ protocol_section ~smoke @ io_alloc_section ~smoke in
  Bench_util.write_record ~suite:"stream"
    ~params:(Experiments.record_params @ [ ("smoke", Secmed_obs.Json.Bool smoke) ])
    rows;
  Bench_util.require ~suite:"stream" rows
    [
      ("bounded", 1., "a transfer's merge window exceeded its per-shard bound");
      ("backlog_after", 0., "chunk backlog not drained to 0");
      ("reused_cheaper", 1., "the reused receive path allocated no less than the naive one");
    ]
