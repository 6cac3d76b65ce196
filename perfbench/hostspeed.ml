(* The host's speed, sampled between sessions with a fixed reference
   kernel.

   On a shared host the same multiply-heavy code runs at very different
   speeds from one second to the next and from one hour to the next: a
   Montgomery exponentiation loop timed in 130 ms slices on a 2-vCPU VM
   spread over 0.65x-2.4x of its median, and 5 s windows of it over
   0.76x-1.30x, while a latency-bound integer loop stayed within 5%.
   The sessions are made of such multiplies, so their wall times carry
   the host's contention, not only the program's cost.

   The kernel below is a CIOS Montgomery product on 30-bit limbs at the
   width of the Paillier modulus squared, an instruction mix like the
   program's hot loop, and it is part of the benchmark: no change to the
   program changes it.  Timed around a piece of work, it says how slow
   the host was meanwhile; dividing the work's time by that slowdown
   gives its time at the reference speed.  In the same slices as above,
   the ratio's 5 s windows stayed within 3% in 15 of 16.

   Every time metric of the benchmark is reported at the reference speed,
   defined as [reference_us] per kernel product. *)

let limbs = 35
let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1

let modulus =
  Array.init limbs (fun i -> if i = 0 then 0x2f1b3a7 else ((i * 0x9e3779b1) + 0x7f4a7c15) land limb_mask)

(* -m0^-1 mod 2^30, by Newton's iteration (m0 is odd) *)
let minv =
  let m0 = modulus.(0) in
  let x = ref 1 in
  for _ = 1 to 5 do
    x := !x * (2 - (m0 * !x)) land limb_mask
  done;
  -(!x) land limb_mask

(* [out] := a * b * 2^(-30 * limbs) mod m, not fully reduced; [t] is
   scratch.  Nothing is allocated, so no GC work left over from the
   sessions lands in a sample. *)
let mont_mul a b t out =
  Array.fill t 0 (limbs + 2) 0;
  for i = 0 to limbs - 1 do
    let ai = a.(i) in
    let c = ref 0 in
    for j = 0 to limbs - 1 do
      let s = t.(j) + (ai * b.(j)) + !c in
      t.(j) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.(limbs) + !c in
    t.(limbs) <- s land limb_mask;
    t.(limbs + 1) <- s lsr limb_bits;
    let u = t.(0) * minv land limb_mask in
    let c = ref ((t.(0) + (u * modulus.(0))) lsr limb_bits) in
    for j = 1 to limbs - 1 do
      let s = t.(j) + (u * modulus.(j)) + !c in
      t.(j - 1) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.(limbs) + !c in
    t.(limbs - 1) <- s land limb_mask;
    t.(limbs) <- t.(limbs + 1) + (s lsr limb_bits)
  done;
  Array.blit t 0 out 0 limbs

let products = 2000

(* Microseconds per kernel product, over [products] squarings. *)
let sample () =
  let x = Array.init limbs (fun i -> ((i * 7919) + 13) land limb_mask) in
  let y = Array.make limbs 0 and t = Array.make (limbs + 2) 0 in
  let t0 = Secmed_obs.Clock.now () in
  for _ = 1 to products / 2 do
    mont_mul x x t y;
    mont_mul y y t x
  done;
  ignore (Sys.opaque_identity x);
  (Secmed_obs.Clock.now () -. t0) /. float_of_int products *. 1e6

let samples n = List.init n (fun _ -> sample ())

let reference_us = 5.0

(* How many times slower than the reference the host ran, from the
   kernel samples taken around a piece of work. *)
let slowdown samples = Stats.mean samples /. reference_us
