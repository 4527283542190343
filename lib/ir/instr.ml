type t = {
  id : int;
  name : string;
  kind : Opcode.kind;
  defs : Reg.t list;
  uses : Reg.t list;
  latency : int;
}

let rec has_dup = function
  | [] -> false
  | r :: rest -> List.exists (Reg.equal r) rest || has_dup rest

(* 25x the longest modelled latency (the 40-cycle vector load). Region
   text is both the serve wire format and the persistence format; the
   per-instruction cap keeps one line from claiming an arbitrary stall,
   and [Region.max_latency_sum] bounds a whole region's. *)
let max_latency = 1024

let make ~id ?name ?latency ~kind ~defs ~uses () =
  let latency = match latency with Some l -> l | None -> Opcode.default_latency kind in
  if latency < 0 then invalid_arg "Instr.make: negative latency";
  if latency > max_latency then
    invalid_arg (Printf.sprintf "Instr.make: latency above %d cycles" max_latency);
  if has_dup defs then invalid_arg "Instr.make: duplicate register in defs";
  let name = match name with Some n -> n | None -> Opcode.to_string kind in
  { id; name; kind; defs; uses; latency }

let with_id t id = { t with id }

let defs_of_cls t cls = List.filter (fun (r : Reg.t) -> Reg.cls_equal r.cls cls) t.defs
let uses_of_cls t cls = List.filter (fun (r : Reg.t) -> Reg.cls_equal r.cls cls) t.uses

let to_string t =
  let regs rs = String.concat " " (List.map Reg.to_string rs) in
  let lhs = if t.defs = [] then "" else regs t.defs ^ " <- " in
  Printf.sprintf "%%%d: %s %s%s" t.id t.name lhs (regs t.uses)
