type t = { name : string; instrs : Instr.t array; live_out : Reg.t list }

let max_latency_sum = 1 lsl 18
let max_instrs = 8192

type error =
  | Empty_region
  | Too_many_instrs of int
  | Bad_id of { expected : int; got : int }
  | Latency_sum_above_cap of int
  | Use_after_exit of Reg.t

let error_to_string = function
  | Empty_region -> "region has no instructions"
  | Too_many_instrs n ->
      Printf.sprintf "%d instructions, above the %d-instruction cap" n max_instrs
  | Bad_id { expected; got } ->
      Printf.sprintf "instruction id %d where %d was expected" got expected
  | Latency_sum_above_cap sum ->
      Printf.sprintf "latencies sum to %d cycles, above the %d-cycle cap" sum max_latency_sum
  | Use_after_exit r ->
      Printf.sprintf "live-out register %s is neither defined nor live-in" (Reg.to_string r)

let compute_live_in instrs =
  let defined = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Array.iter
    (fun (i : Instr.t) ->
      List.iter
        (fun u ->
          if (not (Hashtbl.mem defined (Reg.hash u, u))) && not (Hashtbl.mem seen (Reg.hash u, u))
          then begin
            Hashtbl.add seen (Reg.hash u, u) ();
            acc := u :: !acc
          end)
        i.uses;
      List.iter (fun d -> Hashtbl.replace defined (Reg.hash d, d) ()) i.defs)
    instrs;
  List.rev !acc

let create ~name ?(live_out = []) instrs =
  let n = List.length instrs in
  if n = 0 then Error Empty_region
  else if n > max_instrs then Error (Too_many_instrs n)
  else
    let arr = Array.of_list instrs in
    let bad = ref None in
    Array.iteri
      (fun i (ins : Instr.t) ->
        if !bad = None && ins.id <> i then bad := Some (Bad_id { expected = i; got = ins.id }))
      arr;
    let latency_sum = Array.fold_left (fun acc (i : Instr.t) -> acc + i.latency) 0 arr in
    match !bad with
    | Some e -> Error e
    | None when latency_sum > max_latency_sum -> Error (Latency_sum_above_cap latency_sum)
    | None -> (
        (* The live-out registers not yet seen defined or live-in, in one
           table: the check is linear in the region and the live-out
           list, and live-ins are computed only when a live-out is not
           defined in the region. *)
        let pending = Hashtbl.create 16 in
        List.iter (fun r -> Hashtbl.replace pending r ()) live_out;
        let seen r = Hashtbl.remove pending r in
        Array.iter (fun (i : Instr.t) -> List.iter seen i.defs) arr;
        if Hashtbl.length pending > 0 then List.iter seen (compute_live_in arr);
        match List.find_opt (Hashtbl.mem pending) live_out with
        | Some r -> Error (Use_after_exit r)
        | None -> Ok { name; instrs = arr; live_out })

let create_exn ~name ?live_out instrs =
  match create ~name ?live_out instrs with
  | Ok t -> t
  | Error e -> invalid_arg ("Region.create_exn: " ^ error_to_string e)

let size t = Array.length t.instrs

let live_in t = compute_live_in t.instrs

let is_live_out t r = List.exists (Reg.equal r) t.live_out

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "region %s (%d instrs)\n" t.name (size t));
  Array.iter
    (fun i ->
      Buffer.add_string buf ("  " ^ Instr.to_string i);
      Buffer.add_char buf '\n')
    t.instrs;
  if t.live_out <> [] then
    Buffer.add_string buf
      ("  live-out: " ^ String.concat " " (List.map Reg.to_string t.live_out) ^ "\n");
  Buffer.contents buf
