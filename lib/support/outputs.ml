let create files =
  let rec go made = function
    | [] -> Ok ()
    | file :: rest -> (
        let fresh = not (Sys.file_exists file) in
        match close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file) with
        | () -> go (if fresh then file :: made else made) rest
        | exception Sys_error m ->
            List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) made;
            Error m)
  in
  go [] files
