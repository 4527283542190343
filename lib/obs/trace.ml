(* Flight recorder: a preallocated ring buffer of spans and instant
   events keyed to *simulated* nanoseconds.

   Recording is SoA over parallel arrays indexed by [count mod cap]:
   one Bytes for the event kind and int/float arrays for the interned
   name, track, timestamp, duration and an optional numeric argument.
   Once the ring is full the oldest events are overwritten (the recorder
   never allocates after creation apart from string interning of names
   it has not seen before, and never fails); [dropped] reports how many
   events were lost to wrap-around.

   The disabled recorder [null] makes every recording call a single
   branch on an immutable bool: no allocation, no writes, no RNG — the
   instrumented drivers stay byte-identical with tracing off. *)

type t = {
  on : bool;
  cap : int;
  kind : Bytes.t; (* 0 = span, 1 = instant *)
  name : int array; (* interned id *)
  track : int array;
  ts : float array;
  dur : float array;
  akey : int array; (* interned arg-key id, -1 = no arg *)
  aval : float array;
  mutable count : int; (* total events ever recorded (monotone) *)
  mutable names : string array; (* id -> string *)
  mutable n_names : int;
  intern_tbl : (string, int) Hashtbl.t;
  clock : float array; (* length 1: simulated-ns cursor (unboxed store) *)
  wall0 : float; (* monotonic wall-clock origin, Unix seconds *)
  mutable track_names : (int * string) list;
}

(* Tracks at or above this id carry wall-clock (monotonic) nanoseconds
   instead of simulated nanoseconds. The two families never mix on one
   track; export puts wall tracks under their own process so a viewer
   (and the lint) treats the clocks independently. *)
let wall_track_base = 1024

let create ?(capacity = 65536) () =
  let cap = max 16 capacity in
  {
    on = true;
    cap;
    kind = Bytes.make cap '\000';
    name = Array.make cap 0;
    track = Array.make cap 0;
    ts = Array.make cap 0.0;
    dur = Array.make cap 0.0;
    akey = Array.make cap (-1);
    aval = Array.make cap 0.0;
    count = 0;
    names = Array.make 64 "";
    n_names = 0;
    intern_tbl = Hashtbl.create 64;
    clock = [| 0.0 |];
    wall0 = Unix.gettimeofday ();
    track_names = [];
  }

let null =
  {
    on = false;
    cap = 0;
    kind = Bytes.empty;
    name = [||];
    track = [||];
    ts = [||];
    dur = [||];
    akey = [||];
    aval = [||];
    count = 0;
    names = [||];
    n_names = 0;
    intern_tbl = Hashtbl.create 1;
    clock = [| 0.0 |];
    wall0 = 0.0;
    track_names = [];
  }

let[@inline] enabled t = t.on
let capacity t = t.cap
let recorded t = t.count
let dropped t = max 0 (t.count - t.cap)

let[@inline] now t = t.clock.(0)
let set_now t v = if t.on then t.clock.(0) <- v
let advance t d = if t.on then t.clock.(0) <- t.clock.(0) +. d

(* Wall-clock ns since the recorder's creation. The disabled recorder
   returns 0.0 without touching the system clock, so an uninstrumented
   run makes no syscalls. Reads only immutable fields, so any domain
   may read the clock of a recorder another domain records into. *)
let wall_now t = if t.on then (Unix.gettimeofday () -. t.wall0) *. 1e9 else 0.0

let intern t s =
  match Hashtbl.find_opt t.intern_tbl s with
  | Some id -> id
  | None ->
      let id = t.n_names in
      if id = Array.length t.names then begin
        let grown = Array.make (2 * id) "" in
        Array.blit t.names 0 grown 0 id;
        t.names <- grown
      end;
      t.names.(id) <- s;
      t.n_names <- id + 1;
      Hashtbl.add t.intern_tbl s id;
      id

let name_track t track label =
  if t.on && not (List.mem_assoc track t.track_names) then
    t.track_names <- (track, label) :: t.track_names

let record t k ~track ~name ~ts ~dur ~akey ~aval =
  let i = t.count mod t.cap in
  Bytes.unsafe_set t.kind i (Char.unsafe_chr k);
  t.name.(i) <- intern t name;
  t.track.(i) <- track;
  t.ts.(i) <- ts;
  t.dur.(i) <- dur;
  t.akey.(i) <- (match akey with None -> -1 | Some key -> intern t key);
  t.aval.(i) <- aval;
  t.count <- t.count + 1

let span t ~track ~name ~ts ~dur =
  if t.on then record t 0 ~track ~name ~ts ~dur ~akey:None ~aval:0.0

let span_arg t ~track ~name ~ts ~dur ~key ~value =
  if t.on then record t 0 ~track ~name ~ts ~dur ~akey:(Some key) ~aval:value

let instant t ~track ~name ~ts =
  if t.on then record t 1 ~track ~name ~ts ~dur:0.0 ~akey:None ~aval:0.0

let instant_arg t ~track ~name ~ts ~key ~value =
  if t.on then record t 1 ~track ~name ~ts ~dur:0.0 ~akey:(Some key) ~aval:value

(* Segment replay for the multi-domain executor: each worker records
   into a private ring on its own clock, and bookkeeping per job
   remembers which slice of which ring the job produced ([recorded]
   before/after) and where the worker's clock stood. At join the caller
   replays the slices in job-index order, shifting each by [dt] so the
   merged timeline is the one a sequential run would have produced —
   every timestamp inside a job is its worker's clock-at-entry plus
   simulated deltas, so a linear shift relocates the job exactly. *)
let append_range src ~into ~first ~last ~dt =
  if src.on && into.on then begin
    List.iter
      (fun (track, label) -> name_track into track label)
      (List.rev src.track_names);
    (* events before [count - cap] were lost to ring wrap-around *)
    let lo = max first (src.count - src.cap) in
    for j = lo to min last src.count - 1 do
      let i = j mod src.cap in
      record into
        (Char.code (Bytes.get src.kind i))
        ~track:src.track.(i)
        ~name:src.names.(src.name.(i))
        ~ts:(src.ts.(i) +. dt) ~dur:src.dur.(i)
        ~akey:(if src.akey.(i) < 0 then None else Some src.names.(src.akey.(i)))
        ~aval:src.aval.(i)
    done
  end

type event = {
  e_kind : [ `Span | `Instant ];
  e_name : string;
  e_track : int;
  e_ts : float;
  e_dur : float;
  e_arg : (string * float) option;
}

let fold t ~init ~f =
  let first = max 0 (t.count - t.cap) in
  let acc = ref init in
  for j = first to t.count - 1 do
    let i = j mod t.cap in
    acc :=
      f !acc
        {
          e_kind = (if Bytes.get t.kind i = '\000' then `Span else `Instant);
          e_name = t.names.(t.name.(i));
          e_track = t.track.(i);
          e_ts = t.ts.(i);
          e_dur = t.dur.(i);
          e_arg =
            (if t.akey.(i) < 0 then None else Some (t.names.(t.akey.(i)), t.aval.(i)));
        }
  done;
  !acc

let events t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

(* --- Chrome trace-event export ------------------------------------------ *)

(* B/E emission with a per-track span stack. Spans are recorded complete
   (ts + dur) so the export is balanced by construction; the stack walk
   additionally clamps any float-drift or watchdog-truncation overlap so
   the emitted stream is monotone and properly nested per track. *)

type out_event = {
  o_ts : float;
  o_ph : char; (* 'B' | 'E' | 'i' *)
  o_track : int;
  o_name : string;
  o_arg : (string * float) option;
}

let track_events track evs =
  let spans = List.filter (fun e -> e.e_kind = `Span) evs in
  let instants = List.filter (fun e -> e.e_kind = `Instant) evs in
  let spans =
    List.stable_sort
      (fun a b ->
        match compare a.e_ts b.e_ts with 0 -> compare b.e_dur a.e_dur | c -> c)
      spans
  in
  let out = ref [] in
  let pos = ref 0.0 in
  let emit ts ph name arg =
    let ts = Float.max ts !pos in
    out := { o_ts = ts; o_ph = ph; o_track = track; o_name = name; o_arg = arg } :: !out;
    pos := ts
  in
  let stack = ref [] in
  let pop_until limit =
    let rec go () =
      match !stack with
      | (e_end, name) :: rest when e_end <= limit ->
          stack := rest;
          emit e_end 'E' name None;
          go ()
      | _ -> ()
    in
    go ()
  in
  List.iter
    (fun s ->
      let t0 = Float.max s.e_ts !pos in
      pop_until t0;
      let t_end = s.e_ts +. s.e_dur in
      (* clip to the innermost open parent so nesting stays proper *)
      let t_end =
        match !stack with
        | (p_end, _) :: _ when t_end > p_end -> p_end
        | _ -> t_end
      in
      let t_end = Float.max t_end t0 in
      emit t0 'B' s.e_name s.e_arg;
      stack := (t_end, s.e_name) :: !stack)
    spans;
  pop_until infinity;
  let instants =
    List.map
      (fun e -> { o_ts = e.e_ts; o_ph = 'i'; o_track = track; o_name = e.e_name; o_arg = e.e_arg })
      (List.stable_sort (fun a b -> compare a.e_ts b.e_ts) instants)
  in
  List.merge (fun a b -> compare a.o_ts b.o_ts) (List.rev !out) instants

(* Wall-clock tracks are emitted under pid 1 ("host wall clock") so the
   simulated and monotonic timelines never interleave on one thread row
   — the viewer shows two process groups and the lint checks
   monotonicity per (pid, tid). *)
let track_pid track = if track >= wall_track_base then 1 else 0

let to_chrome_json t =
  let evs = events t in
  let tracks = List.sort_uniq compare (List.map (fun e -> e.e_track) evs) in
  let per_track =
    List.concat_map
      (fun tr -> track_events tr (List.filter (fun e -> e.e_track = tr) evs))
      tracks
  in
  let all = List.stable_sort (fun a b -> compare a.o_ts b.o_ts) per_track in
  let has_wall =
    List.exists (fun tr -> tr >= wall_track_base) tracks
    || List.exists (fun (tr, _) -> tr >= wall_track_base) t.track_names
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\n\"otherData\":{";
  Buffer.add_string buf
    (Printf.sprintf
       "\"recorded\":%d,\"dropped\":%d,\"clock\":\"simulated-ns\",\"wall_clock\":\"monotonic-ns\""
       t.count (dropped t));
  Buffer.add_string buf "},\n\"traceEvents\":[\n";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"gpuaco simulated GPU\"}}";
  if has_wall then
    emit
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"gpuaco host (wall clock)\"}}";
  List.iter
    (fun (track, label) ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"ts\":0,\"args\":{\"name\":\"%s\"}}"
           (track_pid track) track (Trace_check.json_escape label)))
    (List.sort compare (List.rev t.track_names));
  List.iter
    (fun e ->
      (* chrome ts is in microseconds; we record nanoseconds *)
      let args =
        match e.o_arg with
        | None -> ""
        | Some (k, v) ->
            Printf.sprintf ",\"args\":{\"%s\":%s}" (Trace_check.json_escape k)
              (Trace_check.json_float v)
      in
      let scope = if e.o_ph = 'i' then ",\"s\":\"t\"" else "" in
      emit
        (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f%s%s}"
           (Trace_check.json_escape e.o_name) e.o_ph (track_pid e.o_track) e.o_track
           (e.o_ts /. 1000.0) scope args))
    all;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome_json t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_chrome_json t);
      close_out oc)

(* Total span duration by name — the phase breakdown the CLI summary
   prints (where simulated time goes). *)
let span_totals t =
  let tbl = Hashtbl.create 32 in
  fold t ~init:() ~f:(fun () e ->
      if e.e_kind = `Span then begin
        let dur, n = try Hashtbl.find tbl e.e_name with Not_found -> (0.0, 0) in
        Hashtbl.replace tbl e.e_name (dur +. e.e_dur, n + 1)
      end);
  Hashtbl.fold (fun name (dur, n) acc -> (name, dur, n) :: acc) tbl []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let instant_counts t =
  let tbl = Hashtbl.create 32 in
  fold t ~init:() ~f:(fun () e ->
      if e.e_kind = `Instant then
        let n = try Hashtbl.find tbl e.e_name with Not_found -> 0 in
        Hashtbl.replace tbl e.e_name (n + 1));
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
