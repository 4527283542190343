type t = {
  name : string;
  mutable rev_instrs : Instr.t list;
  mutable next_id : int;
  mutable next_vgpr : int;
  mutable next_sgpr : int;
  mutable live_out : Reg.t list;
}

let create ~name =
  { name; rev_instrs = []; next_id = 0; next_vgpr = 0; next_sgpr = 0; live_out = [] }

let fresh_vgpr t =
  let r = Reg.vgpr t.next_vgpr in
  t.next_vgpr <- t.next_vgpr + 1;
  r

let fresh_sgpr t =
  let r = Reg.sgpr t.next_sgpr in
  t.next_sgpr <- t.next_sgpr + 1;
  r

let emit t ?name ?latency kind ~defs ~uses =
  let i = Instr.make ~id:t.next_id ?name ?latency ~kind ~defs ~uses () in
  t.rev_instrs <- i :: t.rev_instrs;
  t.next_id <- t.next_id + 1

let def_op t ?name kind uses fresh =
  let d = fresh t in
  emit t ?name kind ~defs:[ d ] ~uses;
  d

let valu t ?name uses = def_op t ?name Opcode.Valu uses fresh_vgpr
let valu_trans t ?name uses = def_op t ?name Opcode.Valu_trans uses fresh_vgpr
let salu t ?name uses = def_op t ?name Opcode.Salu uses fresh_sgpr
let vload t ?name ~addr () = def_op t ?name Opcode.Vmem_load addr fresh_vgpr
let sload t ?name ~addr () = def_op t ?name Opcode.Smem_load addr fresh_sgpr
let lds_read t ?name ~addr () = def_op t ?name Opcode.Lds addr fresh_vgpr

let vstore t ?name ~data ~addr () = emit t ?name Opcode.Vmem_store ~defs:[] ~uses:(data @ addr)
let lds_write t ?name ~data ~addr () = emit t ?name Opcode.Lds ~defs:[] ~uses:(data @ addr)

let mark_live_out t r =
  if not (List.exists (Reg.equal r) t.live_out) then t.live_out <- r :: t.live_out

let finish t =
  Region.create_exn ~name:t.name ~live_out:(List.rev t.live_out) (List.rev t.rev_instrs)
