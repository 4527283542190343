let cost_of ~ready_scanned ~succs_updated = ready_scanned + succs_updated + 3

let reads_of ~ready_scanned ~succs_updated = ready_scanned + succs_updated + 1

let serialized_of_maxima maxima =
  let acc = ref 0 in
  for r = 0 to Array.length maxima - 1 do
    acc := !acc + maxima.(r)
  done;
  !acc

let max_single_of_maxima maxima =
  let acc = ref 0 in
  for r = 0 to Array.length maxima - 1 do
    if maxima.(r) > !acc then acc := maxima.(r)
  done;
  !acc
