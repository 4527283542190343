let min_reduce costs ~scratch =
  let n = Array.length costs in
  if n = 0 then invalid_arg "Reduction.min_reduce: empty";
  if Array.length scratch < n then invalid_arg "Reduction.min_reduce: scratch too small";
  for i = 0 to n - 1 do
    scratch.(i) <- i
  done;
  (* Tree rounds with halving stride, as in the shared-memory pattern:
     slot [i] keeps the better of itself and slot [i + half]. *)
  let active = ref n in
  while !active > 1 do
    let half = (!active + 1) / 2 in
    for i = 0 to !active - half - 1 do
      let a = scratch.(i) and b = scratch.(i + half) in
      if costs.(b) < costs.(a) || (costs.(b) = costs.(a) && b < a) then scratch.(i) <- b
    done;
    active := half
  done;
  scratch.(0)
