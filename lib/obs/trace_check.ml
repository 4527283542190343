(* Validation for Chrome trace-event JSON, used by `gpuaco trace --lint`
   and CI. We have no JSON dependency, so this carries a minimal
   recursive-descent parser for the subset JSON grammar (objects, arrays,
   strings with escapes, numbers, true/false/null) — enough to re-read
   what Trace.to_chrome_json and any well-formed trace viewer emits. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

(* The writers' half, next to the reader that re-reads what they
   write: every JSON string and number the recorders emit goes through
   these two. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> parse_error "expected '%c' at offset %d, got '%c'" c st.pos c'
  | None -> parse_error "expected '%c' at offset %d, got end of input" c st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then parse_error "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (if st.pos >= String.length st.src then parse_error "unterminated escape";
         let e = st.src.[st.pos] in
         st.pos <- st.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
             if st.pos + 4 > String.length st.src then parse_error "truncated \\u escape";
             let hex = String.sub st.src st.pos 4 in
             st.pos <- st.pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> parse_error "bad \\u escape %s" hex
             in
             (* ASCII passthrough; non-ASCII replaced, fidelity unneeded for lint *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_char buf '?'
         | e -> parse_error "bad escape '\\%c'" e);
        go ()
    | c when Char.code c < 0x20 -> parse_error "raw control character in string"
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some v -> Num v
  | None -> parse_error "bad number %S at offset %d" s start

let parse_lit st lit v =
  let n = String.length lit in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = lit then begin
    st.pos <- st.pos + n;
    v
  end
  else parse_error "bad literal at offset %d" st.pos

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_lit st "true" (Bool true)
  | Some 'f' -> parse_lit st "false" (Bool false)
  | Some 'n' -> parse_lit st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> parse_error "unexpected '%c' at offset %d" c st.pos
  | None -> parse_error "unexpected end of input"

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    st.pos <- st.pos + 1;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec go () =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      fields := (key, v) :: !fields;
      skip_ws st;
      match peek st with
      | Some ',' ->
          st.pos <- st.pos + 1;
          go ()
      | Some '}' -> st.pos <- st.pos + 1
      | _ -> parse_error "expected ',' or '}' at offset %d" st.pos
    in
    go ();
    Obj (List.rev !fields)
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    st.pos <- st.pos + 1;
    List []
  end
  else begin
    let items = ref [] in
    let rec go () =
      let v = parse_value st in
      items := v :: !items;
      skip_ws st;
      match peek st with
      | Some ',' ->
          st.pos <- st.pos + 1;
          go ()
      | Some ']' -> st.pos <- st.pos + 1
      | _ -> parse_error "expected ',' or ']' at offset %d" st.pos
    in
    go ();
    List (List.rev !items)
  end

let parse_json s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then parse_error "trailing garbage at offset %d" st.pos;
  v

(* --- Trace lint --------------------------------------------------------- *)

type report = {
  events : int;
  spans : int;
  instants : int;
  tracks : int;
  wall_tracks : int; (* tracks under a nonzero pid (the wall-clock process) *)
  errors : string list;
}

let ok r = r.errors = []

let mem_assoc k fields = List.mem_assoc k fields
let field k fields = List.assoc_opt k fields

let lint_events events =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let spans = ref 0 in
  let instants = ref 0 in
  (* per (pid,tid): open-B name stack and last timestamp *)
  let stacks : (float * float, string list) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (float * float, float) Hashtbl.t = Hashtbl.create 8 in
  let tracks = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      match ev with
      | Obj fields -> (
          let name =
            match field "name" fields with Some (Str s) -> s | _ -> "?"
          in
          let num k = match field k fields with Some (Num v) -> Some v | _ -> None in
          if not (mem_assoc "name" fields) then err "event %d: missing \"name\"" i;
          match field "ph" fields with
          | Some (Str ph) -> (
              let pid = Option.value (num "pid") ~default:0.0 in
              let tid = Option.value (num "tid") ~default:0.0 in
              let key = (pid, tid) in
              (match ph with
              | "M" -> ()
              | _ -> (
                  Hashtbl.replace tracks key ();
                  match num "ts" with
                  | None -> err "event %d (%s): missing numeric \"ts\"" i name
                  | Some ts ->
                      let prev =
                        Option.value (Hashtbl.find_opt last_ts key) ~default:neg_infinity
                      in
                      if ts < prev then
                        err "event %d (%s): ts %.4f < previous %.4f on tid %.0f" i name ts
                          prev tid;
                      Hashtbl.replace last_ts key ts));
              match ph with
              | "B" ->
                  incr spans;
                  let st = Option.value (Hashtbl.find_opt stacks key) ~default:[] in
                  Hashtbl.replace stacks key (name :: st)
              | "E" -> (
                  match Hashtbl.find_opt stacks key with
                  | Some (top :: rest) ->
                      if top <> name && name <> "?" && mem_assoc "name" fields then
                        err "event %d: E %S closes open B %S on tid %.0f" i name top tid;
                      Hashtbl.replace stacks key rest
                  | _ -> err "event %d: E %S with no open B on tid %.0f" i name tid)
              | "i" | "I" -> incr instants
              | "X" -> incr spans
              | "M" -> ()
              | ph -> err "event %d (%s): unknown ph %S" i name ph)
          | _ -> err "event %d: missing \"ph\"" i)
      | _ -> err "event %d: not an object" i)
    events;
  Hashtbl.iter
    (fun (_, tid) st ->
      match st with
      | [] -> ()
      | names -> err "tid %.0f: %d unbalanced B span(s): %s" tid (List.length names)
                   (String.concat ", " names))
    stacks;
  let wall_tracks =
    Hashtbl.fold (fun (pid, _) () n -> if pid <> 0.0 then n + 1 else n) tracks 0
  in
  {
    events = List.length events;
    spans = !spans;
    instants = !instants;
    tracks = Hashtbl.length tracks;
    wall_tracks;
    errors = List.rev !errors;
  }

let lint_string s =
  let failed msg =
    { events = 0; spans = 0; instants = 0; tracks = 0; wall_tracks = 0; errors = [ msg ] }
  in
  match parse_json s with
  | exception Parse_error msg -> failed ("JSON: " ^ msg)
  | List events -> lint_events events
  | Obj fields -> (
      match field "traceEvents" fields with
      | Some (List events) -> lint_events events
      | _ -> failed "no \"traceEvents\" array")
  | _ -> failed "top level is neither an object nor an array"

let lint_file file =
  let ic = open_in_bin file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_string s

let report_to_string r =
  let head =
    Printf.sprintf "%d events (%d spans, %d instants) on %d track(s)%s" r.events r.spans
      r.instants r.tracks
      (if r.wall_tracks > 0 then Printf.sprintf ", %d wall-clock" r.wall_tracks else "")
  in
  match r.errors with
  | [] -> head ^ ": OK\n"
  | errs ->
      head ^ ":\n"
      ^ String.concat "\n" (List.map (fun e -> "  error: " ^ e) errs)
      ^ "\n"
