(* Parser for the textual region format (see the mli for the grammar).

   Hand-rolled over String.split: the grammar is line-oriented with
   space-separated tokens, and a recursive-descent pass that threads the
   line number gives precise typed errors without a lexer dependency. *)

type error = { line : int; what : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.what

let err line fmt = Printf.ksprintf (fun what -> Error { line; what }) fmt

let tokens line =
  List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line))

let parse_reg ~line tok =
  let cls_of = function
    | 'v' -> Some Reg.Vgpr
    | 's' -> Some Reg.Sgpr
    | _ -> None
  in
  if String.length tok < 2 then err line "bad register %S" tok
  else
    match
      (cls_of tok.[0], int_of_string_opt (String.sub tok 1 (String.length tok - 1)))
    with
    | Some cls, Some id when id >= 0 -> Ok { Reg.cls; id }
    | _ -> err line "bad register %S (expected v<n> or s<n>)" tok

let parse_regs ~line toks =
  List.fold_left
    (fun acc tok ->
      match acc with
      | Error _ as e -> e
      | Ok rs -> ( match parse_reg ~line tok with Ok r -> Ok (r :: rs) | Error e -> Error e))
    (Ok []) toks
  |> Result.map List.rev

(* "%<id>:" with the trailing colon attached to the token. *)
let parse_id ~line tok =
  let n = String.length tok in
  if n < 3 || tok.[0] <> '%' || tok.[n - 1] <> ':' then
    err line "bad instruction id %S (expected %%<n>:)" tok
  else
    match int_of_string_opt (String.sub tok 1 (n - 2)) with
    | Some id when id >= 0 -> Ok id
    | _ -> err line "bad instruction id %S" tok

(* "<mnemonic>" or "<mnemonic>@<latency>". *)
let parse_op ~line tok =
  let mnemonic, latency =
    match String.index_opt tok '@' with
    | None -> (tok, Ok None)
    | Some i -> (
        let lat = String.sub tok (i + 1) (String.length tok - i - 1) in
        ( String.sub tok 0 i,
          match int_of_string_opt lat with
          | Some l when l >= 0 -> Ok (Some l)
          | _ -> err line "bad latency %S" lat ))
  in
  match (Opcode.of_string mnemonic, latency) with
  | _, (Error _ as e) -> e
  | None, _ -> err line "unknown opcode %S" mnemonic
  | Some kind, Ok lat -> Ok (kind, lat)

let parse_instr ~line ~expected_id toks =
  match toks with
  | id_tok :: op_tok :: rest -> (
      match (parse_id ~line id_tok, parse_op ~line op_tok) with
      | Error e, _ | _, Error e -> Error e
      | Ok id, Ok (kind, latency) ->
          if id <> expected_id then
            err line "instruction id %%%d out of order (expected %%%d)" id expected_id
          else
            let defs_toks, uses_toks =
              match
                List.fold_left
                  (fun (before, after, seen) tok ->
                    if tok = "<-" then
                      if seen then (before, after, seen) else (before, after, true)
                    else if seen then (before, tok :: after, seen)
                    else (tok :: before, after, seen))
                  ([], [], false) rest
              with
              | before, after, true -> (List.rev before, List.rev after)
              | before, _, false -> ([], List.rev before)
            in
            (match (parse_regs ~line defs_toks, parse_regs ~line uses_toks) with
            | Error e, _ | _, Error e -> Error e
            | Ok defs, Ok uses -> (
                match Instr.make ~id ?latency ~kind ~defs ~uses () with
                | i -> Ok i
                | exception Invalid_argument m -> err line "%s" m)))
  | _ -> err line "short instruction line"

(* One pass, linear in the text: [count] is the length of [instrs], and
   instructions and live-out registers accumulate reversed, so no line
   costs more than its own tokens. *)
let region_of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno count instrs rev_live_out name = function
    | [] -> (
        match
          Region.create ~name:(Option.value name ~default:"wire")
            ~live_out:(List.rev rev_live_out) (List.rev instrs)
        with
        | Ok r -> Ok r
        | Error e -> err lineno "%s" (Region.error_to_string e))
    | line :: rest -> (
        let lineno = lineno + 1 in
        match tokens line with
        | [] -> go lineno count instrs rev_live_out name rest
        | hash :: _ when String.length hash > 0 && hash.[0] = '#' ->
            go lineno count instrs rev_live_out name rest
        | "region" :: rname :: _ ->
            if count > 0 then err lineno "header after instructions"
            else go lineno count instrs rev_live_out (Some rname) rest
        | "live-out:" :: regs -> (
            match parse_regs ~line:lineno regs with
            | Ok rs -> go lineno count instrs (List.rev_append rs rev_live_out) name rest
            | Error e -> Error e)
        | toks -> (
            match parse_instr ~line:lineno ~expected_id:count toks with
            | Ok i -> go lineno (count + 1) (i :: instrs) rev_live_out name rest
            | Error e -> Error e))
  in
  go 0 0 [] [] None lines

let region_to_wire (r : Region.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "region %s (%d instrs)\n" r.Region.name (Region.size r));
  Array.iter
    (fun (i : Instr.t) ->
      let regs rs = String.concat " " (List.map Reg.to_string rs) in
      let lhs = if i.Instr.defs = [] then "" else regs i.Instr.defs ^ " <- " in
      Buffer.add_string buf
        (Printf.sprintf "  %%%d: %s@%d %s%s\n" i.Instr.id
           (Opcode.to_string i.Instr.kind)
           i.Instr.latency lhs (regs i.Instr.uses)))
    r.Region.instrs;
  if r.Region.live_out <> [] then
    Buffer.add_string buf
      ("  live-out: " ^ String.concat " " (List.map Reg.to_string r.Region.live_out) ^ "\n");
  Buffer.contents buf
