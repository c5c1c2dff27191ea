(* The 64-bit counter is kept as two 32-bit halves in immediate int
   fields rather than one mutable [int64] field: storing to such a
   field boxes a fresh [int64] on every draw, while these stores are
   plain words, so a draw allocates nothing. *)
type t = { mutable hi : int; mutable lo : int }

let[@inline] get t = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let[@inline] set t s =
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s 0xFFFF_FFFFL)

let of_state s =
  let t = { hi = 0; lo = 0 } in
  set t s;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* The "mix64variant13" finaliser from the SplitMix64 reference
   implementation: xor-shift multiply staircase that turns the weak
   counter sequence into high-quality output. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = of_state (mix64 (Int64.of_int seed))

let copy t = { hi = t.hi; lo = t.lo }

let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix64 s

let split t = of_state (bits64 t)

let split_n t k = Array.init k (fun _ -> split t)

let[@inline] bits62 t = Int64.to_int (Int64.logand (bits64 t) (Int64.of_int max_int))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on 62 bits (the width of a native OCaml int)
     keeps the draw exactly uniform for any bound. *)
  let r = ref (bits62 t) in
  let v = ref (!r mod bound) in
  while !r - !v > max_int - bound + 1 do
    r := bits62 t;
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let float t =
  (* 53 uniform bits scaled into [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits *. 0x1.0p-53

let bernoulli t p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else float t < p

let pm1 t = if bool t then 1 else -1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n Fun.id in
  shuffle t a;
  a

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1.0 -. float t) /. lambda

let state = get
