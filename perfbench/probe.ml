(* Unit costs of the public primitives the sessions are made of, timed
   by calling each module's entry points directly.  They price the
   per-scheme primitive counts ([Outcome.counters]) into a crypto
   estimate, and give the net layer its small-frame round trips. *)

open Secmed_bigint
open Secmed_crypto
module Frame = Secmed_net.Frame
module Io = Secmed_net.Io
module Mux = Secmed_net.Endpoint.Mux
module Transcript = Secmed_mediation.Transcript

type t = (string * float) list  (* probe name -> microseconds per call *)

let batches = 5

let crypto_and_bigint ~params ~seed =
  let prng = Prng.create ~seed:(Printf.sprintf "perfbench-probe-%d" seed) in
  let rand_below bound = Bigint.random_below (Prng.byte_source prng) bound in
  let group = Group.default ~bits:params.Secmed_core.Env.group_bits in
  let pkey = Paillier.keygen prng ~bits:params.Secmed_core.Env.paillier_bits in
  let pk = Paillier.public pkey in
  let ekey = Elgamal.keygen prng group in
  let epk = Elgamal.public ekey in
  let ckey = Commutative.keygen prng group in
  let x = Group.element_of_exponent group (Group.random_exponent prng group) in
  let e = Group.random_exponent prng group in
  let r = rand_below pk.Paillier.n in
  let tuple = String.make 64 't' in
  let hct = Hybrid.encrypt prng epk tuple in
  let m = rand_below pk.Paillier.n in
  let pct = Paillier.encrypt prng pk m in
  let pct2 = Paillier.encrypt prng pk m in
  (* PM's Horner steps raise to a 128-bit root (a truncated SHA-256 of
     the join key), not to a full-width scalar. *)
  let k = Bigint.random_bits (Prng.byte_source prng) 128 in
  let counter = ref 0 in
  let time name iters f = (name, Stats.per_call_us ~iters ~batches f) in
  [
    time "bigint.mod_pow_group_us" 200 (fun () -> ignore (Bigint.mod_pow x e group.Group.p));
    time "bigint.mod_pow_paillier_us" 20 (fun () ->
        ignore (Bigint.mod_pow r pk.Paillier.n pk.Paillier.n_squared));
    time "crypto.hybrid_encrypt_us" 50 (fun () -> ignore (Hybrid.encrypt prng epk tuple));
    time "crypto.hybrid_decrypt_us" 50 (fun () -> ignore (Hybrid.decrypt ekey hct));
    time "crypto.paillier_encrypt_us" 20 (fun () -> ignore (Paillier.encrypt prng pk m));
    time "crypto.paillier_decrypt_us" 20 (fun () -> ignore (Paillier.decrypt pkey pct));
    time "crypto.paillier_scalar_us" 20 (fun () -> ignore (Paillier.scalar_mul pk k pct));
    time "crypto.paillier_add_us" 500 (fun () -> ignore (Paillier.add pk pct pct2));
    time "crypto.commutative_apply_us" 200 (fun () -> ignore (Commutative.apply ckey x));
    time "crypto.ideal_hash_us" 200 (fun () ->
        incr counter;
        ignore (Random_oracle.hash group (string_of_int !counter)));
    time "crypto.hash_us" 2000 (fun () -> ignore (Sha256.digest tuple));
    time "crypto.random_us" 500 (fun () -> ignore (rand_below pk.Paillier.n));
  ]

let msg_frame ~session payload =
  Frame.Msg
    {
      Frame.session;
      epoch = 1;
      seq = 1;
      sender = Transcript.Mediator;
      receiver = Transcript.Client;
      label = "probe";
      declared = String.length payload;
      payload;
    }

let codec () =
  let frame = msg_frame ~session:1 (String.make 4096 'c') in
  [
    ( "codec.frame_roundtrip_us",
      Stats.per_call_us ~iters:500 ~batches (fun () ->
          ignore (Frame.decode (Frame.encode frame))) );
  ]

(* A small-frame ping-pong through two [Endpoint.Mux]es over a
   socketpair.  Each mux is released in the only safe order: shut the
   socket down, wait until its receive thread has ended, then close —
   closing under a live reader lets it pick up whatever socket reuses
   the descriptor next. *)
let mux_rtt () =
  let fa, fb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Io.of_fd ~peer:"probe-a" fa and cb = Io.of_fd ~peer:"probe-b" fb in
  let ma = Mux.create ca and mb = Mux.create cb in
  let release () =
    List.iter (fun c -> try Io.shutdown c with _ -> ()) [ ca; cb ];
    let give_up = Unix.gettimeofday () +. 5. in
    while (Mux.alive ma || Mux.alive mb) && Unix.gettimeofday () < give_up do
      Thread.delay 0.001
    done;
    if Mux.alive ma || Mux.alive mb then failwith "probe: mux reader did not stop";
    List.iter (fun c -> try Io.close c with _ -> ()) [ ca; cb ]
  in
  Fun.protect ~finally:release (fun () ->
      Mux.subscribe ma 1;
      Mux.subscribe mb 1;
      let frame = msg_frame ~session:1 "ping" in
      let rtt () =
        Mux.send ma frame;
        ignore (Mux.next mb ~session:1 ~timeout:5.);
        Mux.send mb frame;
        ignore (Mux.next ma ~session:1 ~timeout:5.)
      in
      rtt ();
      [ ("net.mux_rtt_us", Stats.per_call_us ~iters:50 ~batches rtt) ])

(* A [Ping] round trip to a live daemon: connect, probe, health answer. *)
let ping_rtt ~port =
  let ping () = ignore (Secmed_net.Peer.ping ~host:"127.0.0.1" ~port ()) in
  ping ();
  [ ("net.ping_rtt_us", Stats.per_call_us ~iters:20 ~batches ping) ]

let run ~params ~seed = crypto_and_bigint ~params ~seed @ codec () @ mux_rtt ()

let cost (probe : t) name = Option.value (List.assoc_opt name probe) ~default:0.

(* The probe that prices one count of each primitive. *)
let unit_of_primitive = function
  | Counters.Hash -> "crypto.hash_us"
  | Counters.Ideal_hash -> "crypto.ideal_hash_us"
  | Counters.Hybrid_encrypt -> "crypto.hybrid_encrypt_us"
  | Counters.Hybrid_decrypt -> "crypto.hybrid_decrypt_us"
  | Counters.Commutative_encrypt | Counters.Commutative_decrypt -> "crypto.commutative_apply_us"
  | Counters.Homomorphic_encrypt -> "crypto.paillier_encrypt_us"
  | Counters.Homomorphic_decrypt -> "crypto.paillier_decrypt_us"
  | Counters.Homomorphic_add -> "crypto.paillier_add_us"
  | Counters.Homomorphic_scalar -> "crypto.paillier_scalar_us"
  | Counters.Random_number -> "crypto.random_us"

(* Milliseconds the counted primitives should cost at probed prices. *)
let crypto_estimate_ms probe counters =
  List.fold_left
    (fun acc (p, n) -> acc +. (float_of_int n *. cost probe (unit_of_primitive p) /. 1000.))
    0. counters
