type t = {
  region : Ir.Region.t;
  n : int;
  succ_start : int array;
  succ_list : int array;
  succ_lat : int array;
  pred_start : int array;
  pred_list : int array;
  pred_lat : int array;
}

(* Memory classification: scalar (constant) loads are exempt from
   ordering — they read read-only memory. An LDS instruction with defs is
   a read, without defs a write. *)
let mem_access (i : Ir.Instr.t) =
  match i.kind with
  | Ir.Opcode.Vmem_load -> `Read
  | Ir.Opcode.Vmem_store -> `Write
  | Ir.Opcode.Lds -> if i.defs = [] then `Write else `Read
  | Ir.Opcode.Smem_load | Ir.Opcode.Valu | Ir.Opcode.Valu_trans | Ir.Opcode.Salu
  | Ir.Opcode.Branch | Ir.Opcode.Export ->
      `None

(* Counting-sort transpose of [n] compressed rows: row [v] of the result
   lists each [u] whose row holds [v], with that edge's latency. Source
   rows are read last to first and each result row fills from its end,
   so every result row is ascending whatever the order within the
   source rows. *)
let transpose n start list lat =
  let m = start.(n) in
  let start' = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    start'.(list.(k)) <- start'.(list.(k)) + 1
  done;
  for v = 1 to n do
    start'.(v) <- start'.(v) + start'.(v - 1)
  done;
  let list' = Array.make m 0 and lat' = Array.make m 0 in
  for u = n - 1 downto 0 do
    for k = start.(u) to start.(u + 1) - 1 do
      let v = list.(k) in
      let s = start'.(v) - 1 in
      start'.(v) <- s;
      list'.(s) <- u;
      lat'.(s) <- lat.(k)
    done
  done;
  (start', list', lat')

let build region =
  let instrs = (region : Ir.Region.t).instrs in
  let n = Array.length instrs in
  (* Every edge added while visiting instruction [i] ends at [i], so the
     predecessor rows fill in program order: row [i] is [src]/[lat] from
     [row.(i)] to [row.(i + 1) - 1], unsorted. [at.(s)] is the last slot
     [s] took; a slot inside the current row makes the edge a parallel
     one, merged at the maximum latency. *)
  let row = Array.make (n + 1) 0 and at = Array.make n (-1) in
  let src = ref (Array.make ((3 * n) + 8) 0) and lat = ref (Array.make ((3 * n) + 8) 0) in
  let m = ref 0 in
  let add_edge s i l =
    if s = i then ()
    else if at.(s) >= row.(i) then begin
      if l > !lat.(at.(s)) then !lat.(at.(s)) <- l
    end
    else begin
      if !m = Array.length !src then begin
        let grow a =
          let b = Array.make (2 * !m) 0 in
          Array.blit a 0 b 0 !m;
          b
        in
        src := grow !src;
        lat := grow !lat
      end;
      !src.(!m) <- s;
      !lat.(!m) <- l;
      at.(s) <- !m;
      incr m
    end
  in
  let last_def : (Ir.Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let users : (Ir.Reg.t, int list) Hashtbl.t = Hashtbl.create 64 in
  let last_store = ref (-1) in
  let loads_since_store = ref [] in
  Array.iteri
    (fun i (ins : Ir.Instr.t) ->
      row.(i) <- !m;
      List.iter
        (fun u ->
          (match Hashtbl.find_opt last_def u with
          | Some d -> add_edge d i (instrs.(d)).latency
          | None -> ());
          let us = Option.value (Hashtbl.find_opt users u) ~default:[] in
          Hashtbl.replace users u (i :: us))
        ins.uses;
      List.iter
        (fun d ->
          (match Hashtbl.find_opt last_def d with Some j -> add_edge j i 1 | None -> ());
          (match Hashtbl.find_opt users d with
          | Some us -> List.iter (fun k -> add_edge k i 0) us
          | None -> ());
          Hashtbl.replace last_def d i;
          Hashtbl.replace users d [])
        ins.defs;
      (match mem_access ins with
      | `Write ->
          if !last_store >= 0 then add_edge !last_store i 1;
          List.iter (fun l -> add_edge l i 0) !loads_since_store;
          last_store := i;
          loads_since_store := []
      | `Read ->
          if !last_store >= 0 then add_edge !last_store i 1;
          loads_since_store := i :: !loads_since_store
      | `None -> ());
      if Ir.Opcode.equal ins.kind Ir.Opcode.Branch then
        for j = 0 to i - 1 do
          add_edge j i 1
        done)
    instrs;
  row.(n) <- !m;
  (* Transposing twice sorts: the successor rows come out ascending, and
     so do the predecessor rows transposed back from them. *)
  let succ_start, succ_list, succ_lat = transpose n row !src !lat in
  let pred_start, pred_list, pred_lat = transpose n succ_start succ_list succ_lat in
  { region; n; succ_start; succ_list; succ_lat; pred_start; pred_list; pred_lat }

let size t = t.n
let num_preds t i = t.pred_start.(i + 1) - t.pred_start.(i)
let num_succs t i = t.succ_start.(i + 1) - t.succ_start.(i)

let latency_between t i j =
  let rec find k =
    if k >= t.succ_start.(i + 1) then None
    else if t.succ_list.(k) = j then Some t.succ_lat.(k)
    else find (k + 1)
  in
  find t.succ_start.(i)

let instr t i = (t.region : Ir.Region.t).instrs.(i)

let to_dot t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph ddg {\n";
  for i = 0 to t.n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\"];\n" i (Ir.Instr.to_string (instr t i)))
  done;
  for i = 0 to t.n - 1 do
    for k = t.succ_start.(i) to t.succ_start.(i + 1) - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" i t.succ_list.(k) t.succ_lat.(k))
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
