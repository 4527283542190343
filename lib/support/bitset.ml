(* 62 usable bits per word keeps all arithmetic within OCaml's tagged
   63-bit ints on 64-bit platforms with a margin for shifts. *)
let bits_per_word = 62

type t = { words : int array; capacity : int }

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  let n = (capacity + bits_per_word - 1) / bits_per_word in
  { words = Array.make (max n 1) 0; capacity }

let capacity t = t.capacity

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_cap a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into ~into s =
  same_cap into s;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor s.words.(i)
  done

let diff_into ~into s =
  same_cap into s;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land lnot s.words.(i)
  done

let inter_cardinal a b =
  same_cap a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let subset a b =
  same_cap a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t
