let step_transactions (config : Config.t) ~active ~reads_max ~reads_sum =
  if active = 0 then 0
  else if config.opts.Config.coalesced_layout then reads_max
  else reads_sum

let words_per_thread (config : Config.t) ~n ~ready_ub =
  let ready = if config.opts.Config.tight_ready_ub then ready_ub else n in
  (* schedule slots (with stall margin) + ready array + pending array +
     per-register liveness state (bounded by 2n defs) + misc scalars. *)
  (2 * n) + ready + ready + (2 * n) + 16

let structures_per_thread = 5
(* schedule, ready, pending, RP state, scalars — each a separate
   allocation + copy in unbatched mode. *)

let setup_time_ns (config : Config.t) ~n ~ready_ub =
  let threads = Config.threads config in
  let words = words_per_thread config ~n ~ready_ub * threads in
  let pheromone_words = (n + 1) * n in
  let copy = float_of_int (words + pheromone_words) *. config.copy_ns_per_word in
  let calls =
    if config.opts.Config.batched_alloc then 2.0 (* one alloc + one copy *)
    else float_of_int (structures_per_thread * threads / 64 * 2)
    (* per-structure calls; the driver batches within a block's worth *)
  in
  copy +. (calls *. config.alloc_call_ns)

let teardown_time_ns (config : Config.t) ~n =
  let calls = if config.opts.Config.batched_alloc then 2.0 else 8.0 in
  (float_of_int (2 * n) *. config.copy_ns_per_word) +. (calls *. config.alloc_call_ns)

(* Spill pricing for the spill-aware RP objective (RegDem,
   arXiv 1907.02894), derived from the same machine description the
   simulator runs on. Modeling choices:
   - the target occupancy is 80% of the target's wave limit — high
     enough that pressure matters, low enough that the allowances are
     not degenerate;
   - a spilled VGPR costs a store + reload round trip, so two memory
     transactions amortized over a wavefront, expressed in GPU op
     cycles ([2 * mem_transaction_ns / gpu_ns_per_op], at least 1);
   - SGPR spills go through scalar memory, which the model prices at
     half the vector cost (again at least 1). *)
let spill_model (config : Config.t) : Sched.Objective.spill_model =
  let occ = Machine.Occupancy.create config.target in
  let target_occupancy = max 1 (Machine.Occupancy.max_waves occ * 8 / 10) in
  let allow cls =
    Machine.Occupancy.max_pressure_for occ cls ~occupancy:target_occupancy
  in
  let round_trip = 2.0 *. config.mem_transaction_ns /. config.gpu_ns_per_op in
  let vgpr_spill_cycles = max 1 (int_of_float (ceil round_trip)) in
  let sgpr_spill_cycles = max 1 (vgpr_spill_cycles / 2) in
  {
    Sched.Objective.target_occupancy;
    allow_vgpr = allow Ir.Reg.Vgpr;
    allow_sgpr = allow Ir.Reg.Sgpr;
    vgpr_spill_cycles;
    sgpr_spill_cycles;
  }
