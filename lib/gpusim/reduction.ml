let better (ca, ia) (cb, ib) = if ca < cb || (ca = cb && ia < ib) then (ca, ia) else (cb, ib)

let min_reduce costs =
  let n = Array.length costs in
  if n = 0 then invalid_arg "Reduction.min_reduce: empty";
  (* Tree rounds with halving stride, as in the shared-memory pattern. *)
  let buf = Array.copy costs in
  let active = ref n in
  while !active > 1 do
    let half = (!active + 1) / 2 in
    for i = 0 to !active - half - 1 do
      buf.(i) <- better buf.(i) buf.(i + half)
    done;
    active := half
  done;
  buf.(0)

let min_reduce_into ~costs ~scratch_cost ~scratch_idx =
  let n = Array.length costs in
  if n = 0 then invalid_arg "Reduction.min_reduce_into: empty";
  if Array.length scratch_cost < n || Array.length scratch_idx < n then
    invalid_arg "Reduction.min_reduce_into: scratch too small";
  Array.blit costs 0 scratch_cost 0 n;
  for i = 0 to n - 1 do
    scratch_idx.(i) <- i
  done;
  let active = ref n in
  while !active > 1 do
    let half = (!active + 1) / 2 in
    for i = 0 to !active - half - 1 do
      let ca = scratch_cost.(i) and cb = scratch_cost.(i + half) in
      if not (ca < cb || (ca = cb && scratch_idx.(i) < scratch_idx.(i + half))) then begin
        scratch_cost.(i) <- cb;
        scratch_idx.(i) <- scratch_idx.(i + half)
      end
    done;
    active := half
  done;
  (scratch_cost.(0), scratch_idx.(0))
