(* Unboxed float64 matrix backing the ant data plane. One Bigarray per
   matrix, row-major, with the row stride rounded up to a full cache
   line (8 doubles = 64 bytes) so rows never share a line and a row base
   is a single shift-free multiply. Reads and writes through [get]/[set]
   compile to raw float loads/stores — no boxing at the OCaml/float
   boundary — which is the whole point: pheromone rows and per-ant
   score slices live here and are consumed by tight loops that must not
   allocate.

   Padding cells (columns [cols..stride-1]) are guaranteed to hold 0.0
   at all times; every bulk operation below preserves that, so summation
   over a padded row equals summation over its real prefix. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; stride : int; data : mat }

(* 8 float64 per 64-byte cache line *)
let line = 8

let stride_of_cols cols = (cols + line - 1) / line * line

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Fmat.create: negative dimension";
  let stride = stride_of_cols cols in
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max (rows * stride) 1) in
  Bigarray.Array1.fill data 0.0;
  { rows; cols; stride; data }

let wrap data ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Fmat.wrap: negative dimension";
  let stride = stride_of_cols cols in
  if Bigarray.Array1.dim data < rows * stride then invalid_arg "Fmat.wrap: backing store too small";
  { rows; cols; stride; data }

let rows t = t.rows
let cols t = t.cols
let stride t = t.stride
let words t = Bigarray.Array1.dim t.data

let[@inline] row_base t r = r * t.stride
let[@inline] get t i = Bigarray.Array1.unsafe_get t.data i
let[@inline] set t i v = Bigarray.Array1.unsafe_set t.data i v

let check_row t r name = if r < 0 || r >= t.rows then invalid_arg name

(* Checked per-row helpers for cold paths (setup, diagnostics). *)
let row_get t r j =
  check_row t r "Fmat.row_get: row out of range";
  if j < 0 || j >= t.cols then invalid_arg "Fmat.row_get: col out of range";
  get t ((r * t.stride) + j)

let row_set t r j v =
  check_row t r "Fmat.row_set: row out of range";
  if j < 0 || j >= t.cols then invalid_arg "Fmat.row_set: col out of range";
  set t ((r * t.stride) + j) v

let fill t v =
  (* real columns only: padding must stay 0.0 *)
  for r = 0 to t.rows - 1 do
    let base = r * t.stride in
    for j = 0 to t.cols - 1 do
      set t (base + j) v
    done
  done

let clear t = Bigarray.Array1.fill t.data 0.0

let row_to_array t r =
  check_row t r "Fmat.row_to_array: row out of range";
  Array.init t.cols (fun j -> get t ((r * t.stride) + j))

let to_array t = Array.init t.rows (fun r -> row_to_array t r)
