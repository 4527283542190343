(* Recency is a stamp per entry, bumped by [find] and [add]. The victim
   is found by a linear scan, which runs only when a new key arrives at
   capacity (the capacities in use are hundreds). *)

type 'v entry = { value : 'v; mutable used : int }
type ('k, 'v) t = { capacity : int; tbl : ('k, 'v entry) Hashtbl.t; mutable tick : int }

let create capacity = { capacity = max 0 capacity; tbl = Hashtbl.create 64; tick = 0 }
let capacity t = t.capacity
let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k
let remove t k = Hashtbl.remove t.tbl k

let stamp t =
  t.tick <- t.tick + 1;
  t.tick

let find t k =
  match Hashtbl.find t.tbl k with
  | e ->
      e.used <- stamp t;
      Some e.value
  | exception Not_found -> None

let evict t pinned =
  let oldest k e acc =
    match acc with
    | Some (_, used) when used <= e.used -> acc
    | _ -> if pinned e.value then acc else Some (k, e.used)
  in
  match Hashtbl.fold oldest t.tbl None with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      true
  | None -> false

let add ?(pinned = fun _ -> false) t k v =
  let evicted =
    t.capacity > 0 && (not (Hashtbl.mem t.tbl k)) && length t >= t.capacity && evict t pinned
  in
  if t.capacity > 0 then Hashtbl.replace t.tbl k { value = v; used = stamp t };
  evicted

let to_list t =
  Hashtbl.fold (fun k e acc -> (e.used, (k, e.value)) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd
