type cls = Vgpr | Sgpr
type t = { cls : cls; id : int }

let vgpr id = { cls = Vgpr; id }
let sgpr id = { cls = Sgpr; id }

let cls_equal a b = match (a, b) with Vgpr, Vgpr | Sgpr, Sgpr -> true | (Vgpr | Sgpr), _ -> false

let equal a b = cls_equal a.cls b.cls && a.id = b.id

let cls_rank = function Vgpr -> 0 | Sgpr -> 1

let compare a b =
  let c = Int.compare (cls_rank a.cls) (cls_rank b.cls) in
  if c <> 0 then c else Int.compare a.id b.id

let hash t = (cls_rank t.cls * 1000003) + t.id

let to_string t =
  match t.cls with Vgpr -> "v" ^ string_of_int t.id | Sgpr -> "s" ^ string_of_int t.id
