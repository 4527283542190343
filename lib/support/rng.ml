(* xoshiro256++ with the four 64-bit state words stored by bit pattern in
   a flat float array: float-array loads and stores compile to unboxed
   moves and [Int64.bits_of_float]/[float_of_bits] are no-op bit casts,
   so — with the hot draws inlined — advancing the generator allocates
   nothing. A mutable int64 record would box every state store (and the
   selection loop of the ACO ant draws on every step). The emitted
   stream is bit-identical to the textbook int64 formulation. *)

type t = float array

(* splitmix64: expands a 64-bit seed into well-distributed words; the
   recommended way to seed xoshiro. The four outputs are let-bound and
   [of_seed_word] is inlined, so the words stay unboxed and a seeding
   (every [split], once per ant start) allocates only the 5-word state
   array; a mutable [Int64] ref would box every intermediate. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] of_seed_word w =
  let w0 = Int64.add w golden_gamma in
  let w1 = Int64.add w0 golden_gamma in
  let w2 = Int64.add w1 golden_gamma in
  let w3 = Int64.add w2 golden_gamma in
  let t = Array.create_float 4 in
  Array.unsafe_set t 0 (Int64.float_of_bits (mix w0));
  Array.unsafe_set t 1 (Int64.float_of_bits (mix w1));
  Array.unsafe_set t 2 (Int64.float_of_bits (mix w2));
  Array.unsafe_set t 3 (Int64.float_of_bits (mix w3));
  t

let create seed = of_seed_word (Int64.of_int seed)

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ step. *)
let[@inline] int64 (t : t) =
  let s0 = Int64.bits_of_float (Array.unsafe_get t 0) in
  let s1 = Int64.bits_of_float (Array.unsafe_get t 1) in
  let s2 = Int64.bits_of_float (Array.unsafe_get t 2) in
  let s3 = Int64.bits_of_float (Array.unsafe_get t 3) in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  Array.unsafe_set t 0 (Int64.float_of_bits s0);
  Array.unsafe_set t 1 (Int64.float_of_bits s1);
  Array.unsafe_set t 2 (Int64.float_of_bits s2);
  Array.unsafe_set t 3 (Int64.float_of_bits s3);
  result

let copy (t : t) = Array.copy t

let split t = of_seed_word (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (int64 t) mask) in
  v mod bound

let[@inline] float t =
  (* 53 high bits -> [0,1). *)
  let v = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let float_bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

let[@inline] bool t p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
