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
  role : Transcript.party;
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
  rows : rows_transport;
}

type endpoint = Inproc | Remote of transport

type t = {
  endpoint : endpoint;
  fault : Fault.plan option;
  transcript : Transcript.t;
  mutable seq : int;
}

let make ?(endpoint = Inproc) ?fault transcript = { endpoint; fault; transcript; seq = 0 }

let transcript t = t.transcript
let fault t = t.fault
let endpoint t = t.endpoint

let is_remote t = match t.endpoint with Inproc -> false | Remote _ -> true

let seq t = t.seq

(* The wire always carries at least [size] bytes: messages whose modelled
   size includes bytes the prototype never materialises (e.g. attached
   credentials) are zero-padded, so the socket-level byte count equals
   the transcript entry.  Both sides compute the same padded frame, so
   the receiver-side equality check is unaffected. *)
let padded payload size =
  let n = String.length payload in
  if n >= size then payload else payload ^ String.make (size - n) '\000'

let deliver t ~phase ~sender ~receiver ~label ?(guard = true) ?size payload =
  match (t.endpoint, t.fault, size) with
  | Inproc, None, Some size ->
    (* Honest in-process fast path: the payload thunk is never forced. *)
    Transcript.record t.transcript ~sender ~receiver ~label ~size
  | Inproc, Some _, Some size when not guard ->
    Transcript.record t.transcript ~sender ~receiver ~label ~size
  | _ ->
    let p = payload () in
    let size = match size with Some s -> s | None -> String.length p in
    Transcript.record t.transcript ~sender ~receiver ~label ~size;
    let p =
      match t.fault with
      | Some plan when guard ->
        Fault.inject plan t.transcript ~phase ~sender ~receiver ~label p
      | _ -> p
    in
    (match t.endpoint with
     | Inproc -> ()
     | Remote tr ->
       let seq = t.seq in
       t.seq <- seq + 1;
       if Transcript.party_equal tr.role sender then
         tr.send ~phase ~seq ~sender ~receiver ~label ~size (padded p size)
       else if Transcript.party_equal tr.role receiver then begin
         let received = tr.recv ~phase ~seq ~sender ~receiver ~label ~size in
         if not (String.equal received (padded p size)) then
           Fault.fail ~phase ~party:receiver
             (Printf.sprintf "%s rejected: wire payload mismatch (%d bytes received, %d computed)"
                label (String.length received) (String.length (padded p size)))
       end)

(* Row-wise delivery: same transcript entry, same sequence slot, same
   declared size as [deliver] of the concatenated rows — the scalar and
   streamed encodings of a message are interchangeable at every layer
   above the transport.  The streamed path engages only on a fault-free
   remote link; with a fault plan (which
   every replica agrees on, since the spec rides in the session
   announcement) the rows collapse to one payload so the fault layer's
   rule matching and padding semantics are untouched. *)
let deliver_rows t ~phase ~sender ~receiver ~label ?(guard = true) ~size rows =
  match (t.endpoint, t.fault) with
  | Remote tr, None ->
    let indexed = List.mapi (fun i b -> (i, b)) (rows ()) in
    let total = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 indexed in
    let indexed =
      (* Mirror [padded]: a declared size above the materialised bytes
         travels as one trailing zero-filled row. *)
      if total < size then indexed @ [ (List.length indexed, String.make (size - total) '\000') ]
      else indexed
    in
    Transcript.record t.transcript ~sender ~receiver ~label ~size;
    let seq = t.seq in
    t.seq <- seq + 1;
    if Transcript.party_equal tr.role sender then
      tr.rows.send_rows ~phase ~seq ~sender ~receiver ~label ~size indexed
    else if Transcript.party_equal tr.role receiver then
      tr.rows.recv_rows ~phase ~seq ~sender ~receiver ~label ~size ~expect:indexed
  | _ ->
    deliver t ~phase ~sender ~receiver ~label ~guard ~size (fun () ->
        String.concat "" (rows ()))
