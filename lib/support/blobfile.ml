(* Checksummed, versioned blob files with atomic replacement.

   Header line: "gpuaco-blob <kind> <version> <length> <md5hex>\n"
   followed by exactly [length] payload bytes. Every way a file can be
   wrong — absent, foreign, stale, short, corrupt — maps to a typed
   error; [load] raises nothing. *)

type error =
  | Missing
  | Bad_header of string
  | Wrong_kind of { expected : string; got : string }
  | Version_skew of { expected : int; got : int }
  | Corrupt of string

let error_to_string = function
  | Missing -> "no such file"
  | Bad_header s -> "bad header: " ^ s
  | Wrong_kind { expected; got } ->
      Printf.sprintf "wrong kind: expected %s, got %s" expected got
  | Version_skew { expected; got } ->
      Printf.sprintf "version skew: expected %d, got %d" expected got
  | Corrupt s -> "corrupt payload: " ^ s

let magic = "gpuaco-blob"

let check_kind kind =
  String.iter
    (fun c ->
      if c = ' ' || c = '\n' || c = '\r' then
        invalid_arg "Blobfile: kind must be a single token")
    kind

let save ~kind ~version path payload =
  check_kind kind;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (* A checked close: a write that fails only at the final flush (a full
     disk) must not reach the rename, or it would replace the previous
     blob with a truncated one. *)
  (try
     Printf.fprintf oc "%s %s %d %d %s\n" magic kind version (String.length payload)
       (Digest.to_hex (Digest.string payload));
     output_string oc payload;
     close_out oc
   with Sys_error _ as e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* Atomic on POSIX: readers see the old blob or the new one, never a
     half-written file — the crash-safety half of the contract. *)
  Sys.rename tmp path

let load ~kind ~version path =
  check_kind kind;
  if not (Sys.file_exists path) then Error Missing
  else
    match open_in_bin path with
    | exception Sys_error e -> Error (Bad_header e)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> Error (Bad_header "empty file")
            | header -> (
                match String.split_on_char ' ' (String.trim header) with
                | [ m; k; v; len; md5 ] when String.equal m magic -> (
                    match (int_of_string_opt v, int_of_string_opt len) with
                    | None, _ | _, None -> Error (Bad_header "non-numeric fields")
                    | Some v, Some len ->
                        if not (String.equal k kind) then
                          Error (Wrong_kind { expected = kind; got = k })
                        else if v <> version then
                          Error (Version_skew { expected = version; got = v })
                        else if len < 0 then Error (Bad_header "negative length")
                        else
                          let buf = Bytes.create len in
                          let rec fill off =
                            if off >= len then Ok ()
                            else
                              match input ic buf off (len - off) with
                              | 0 -> Error off
                              | k -> fill (off + k)
                              | exception End_of_file -> Error off
                          in
                          (match fill 0 with
                          | Error got ->
                              Error
                                (Corrupt
                                   (Printf.sprintf "truncated: %d of %d bytes" got len))
                          | Ok () ->
                              let payload = Bytes.unsafe_to_string buf in
                              let got_md5 = Digest.to_hex (Digest.string payload) in
                              if String.equal got_md5 md5 then Ok payload
                              else Error (Corrupt "checksum mismatch")))
                | _ -> Error (Bad_header "not a gpuaco blob")))
