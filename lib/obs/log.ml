(* Structured operational logger: a leveled, mutex-protected ring of
   events rendered as JSONL.

   The discipline is the tracer's (trace.ml): the disabled logger
   [null] makes every call a single branch on an immutable bool — no
   allocation, no timestamp syscall, no lock — so an uninstrumented run
   is byte-identical including its allocation counters. The enabled
   logger appends into a bounded ring under a mutex (workers on
   different domains share one ring), overwriting the oldest entries
   when full; [dropped] reports the loss.

   Request ids and other ambient context thread through [with_fields]:
   a child logger shares the parent's ring and level but stamps every
   entry with its bound fields, so the serve loop binds [req] once at
   admission and the binding survives through the pool worker into the
   backend passes. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_label = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

type field = Str of string | Int of int | Float of float | Bool of bool

type entry = {
  e_ts : float; (* Unix seconds *)
  e_level : level;
  e_event : string;
  e_fields : (string * field) list;
}

type core = {
  lock : Mutex.t;
  cap : int;
  ring : entry option array; (* indexed count mod cap *)
  mutable count : int; (* entries ever logged (monotone) *)
  min_level : level;
}

type t = {
  on : bool;
  core : core;
  bound : (string * field) list; (* outermost binding first *)
}

let null =
  {
    on = false;
    core =
      { lock = Mutex.create (); cap = 0; ring = [||]; count = 0; min_level = Error };
    bound = [];
  }

let create ?(capacity = 4096) ?(level = Debug) () =
  let cap = max 16 capacity in
  {
    on = true;
    core =
      {
        lock = Mutex.create ();
        cap;
        ring = Array.make cap None;
        count = 0;
        min_level = level;
      };
    bound = [];
  }

let[@inline] enabled t = t.on
let capacity t = t.core.cap
let recorded t = t.core.count
let dropped t = max 0 (t.core.count - t.core.cap)
let level t = t.core.min_level

let with_fields t fields =
  if not t.on then t else { t with bound = t.bound @ fields }

let log t lvl event fields =
  if t.on && severity lvl >= severity t.core.min_level then begin
    let e =
      { e_ts = Unix.gettimeofday (); e_level = lvl; e_event = event;
        e_fields = t.bound @ fields }
    in
    let c = t.core in
    Mutex.lock c.lock;
    c.ring.(c.count mod c.cap) <- Some e;
    c.count <- c.count + 1;
    Mutex.unlock c.lock
  end

let debug t event fields = log t Debug event fields
let info t event fields = log t Info event fields
let warn t event fields = log t Warn event fields
let error t event fields = log t Error event fields

(* Surviving entries oldest first. Snapshot under the lock so a reader
   on one domain does not tear a writer on another. *)
let entries t =
  if not t.on then []
  else begin
    let c = t.core in
    Mutex.lock c.lock;
    let first = max 0 (c.count - c.cap) in
    let out = ref [] in
    for j = c.count - 1 downto first do
      match c.ring.(j mod c.cap) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    Mutex.unlock c.lock;
    !out
  end

(* --- JSONL rendering ---------------------------------------------------- *)

let field_json = function
  | Str s -> Printf.sprintf "\"%s\"" (Trace_check.json_escape s)
  | Int i -> string_of_int i
  | Float v -> Trace_check.json_float v
  | Bool b -> if b then "true" else "false"

let entry_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"ts\":%.6f,\"lvl\":\"%s\",\"evt\":\"%s\"" e.e_ts
       (level_label e.e_level) (Trace_check.json_escape e.e_event));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":%s" (Trace_check.json_escape k) (field_json v)))
    e.e_fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_json e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let write_jsonl t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_jsonl t);
      close_out oc)
