(* Metrics registry: named counters, gauges, histogram summaries and
   append-only series, with JSON and CSV export.

   Metrics are registered on first use and exported sorted by name, so
   an export does not depend on which writer touched a name first. The
   disabled registry [null] turns every operation into a branch on an
   immutable bool, so instrumentation sites guarded by [enabled] cost
   nothing when metrics are off. *)

type kind = Counter | Gauge | Histogram | Series

let kind_label = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"
  | Series -> "series"

(* Histogram bucket upper bounds: powers of 4 from 1 — a fixed
   log-scale ladder wide enough for nanosecond latencies (4^15 ≈ 1.07e9
   ns ≈ 1 s) with a +Inf overflow bucket at the end. Static bounds keep
   [observe] allocation-free. *)
let bucket_bounds =
  Array.init 16 (fun i -> Float.of_int (1 lsl (2 * i)))

let n_buckets = Array.length bucket_bounds + 1 (* + overflow *)

type metric = {
  m_name : string;
  m_kind : kind;
  mutable m_count : int;
  mutable m_sum : float;
  mutable m_min : float;
  mutable m_max : float;
  mutable m_last : float;
  mutable m_series : float array;
  mutable m_len : int;
  m_buckets : int array; (* per-bucket counts; [||] unless Histogram *)
}

type t = {
  on : bool;
  lock : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
}

let create () = { on = true; lock = Mutex.create (); tbl = Hashtbl.create 64 }
let null = { on = false; lock = Mutex.create (); tbl = Hashtbl.create 1 }
let[@inline] enabled t = t.on

(* Every mutation and registry read takes [t.lock], so one registry can
   be shared by the executor's and the serve batch's pool workers. Write
   paths branch on
   [t.on] before locking, so the disabled registry stays a no-op that
   never touches the mutex. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t name kind =
  match Hashtbl.find_opt t.tbl name with
  | Some m ->
      if m.m_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_label m.m_kind)
             (kind_label kind));
      m
  | None ->
      let m =
        {
          m_name = name;
          m_kind = kind;
          m_count = 0;
          m_sum = 0.0;
          m_min = infinity;
          m_max = neg_infinity;
          m_last = 0.0;
          m_series = (if kind = Series then Array.make 16 0.0 else [||]);
          m_len = 0;
          m_buckets = (if kind = Histogram then Array.make n_buckets 0 else [||]);
        }
      in
      Hashtbl.add t.tbl name m;
      m

let update m v =
  m.m_count <- m.m_count + 1;
  m.m_sum <- m.m_sum +. v;
  if v < m.m_min then m.m_min <- v;
  if v > m.m_max then m.m_max <- v;
  m.m_last <- v

let add t name by =
  if t.on then
    locked t (fun () ->
        let m = find t name Counter in
        m.m_count <- m.m_count + 1;
        m.m_sum <- m.m_sum +. float_of_int by)

let incr t name = add t name 1

let set t name v = if t.on then locked t (fun () -> update (find t name Gauge) v)

let bucket_index v =
  let n = Array.length bucket_bounds in
  let rec go i = if i >= n then n else if v <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let observe t name v =
  if t.on then
    locked t (fun () ->
        let m = find t name Histogram in
        update m v;
        let i = bucket_index v in
        m.m_buckets.(i) <- m.m_buckets.(i) + 1)

let push t name v =
  if t.on then
    locked t (fun () ->
        let m = find t name Series in
        if m.m_len = Array.length m.m_series then begin
          let grown = Array.make (2 * m.m_len) 0.0 in
          Array.blit m.m_series 0 grown 0 m.m_len;
          m.m_series <- grown
        end;
        m.m_series.(m.m_len) <- v;
        m.m_len <- m.m_len + 1;
        update m v)

(* Callers hold [t.lock]. *)
let sorted_names t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [])

let names t = locked t (fun () -> sorted_names t)

let get t name = locked t (fun () -> Hashtbl.find_opt t.tbl name)

let kind_of m = m.m_kind
let count m = m.m_count
let sum m = m.m_sum
let last m = m.m_last
let series m = Array.sub m.m_series 0 m.m_len

let value m =
  match m.m_kind with Counter -> m.m_sum | Gauge -> m.m_last | Histogram | Series -> m.m_sum

let mean m = if m.m_count = 0 then 0.0 else m.m_sum /. float_of_int m.m_count

let buckets m =
  if m.m_kind <> Histogram then [||]
  else begin
    let cum = ref 0 in
    Array.init n_buckets (fun i ->
        cum := !cum + m.m_buckets.(i);
        ( (if i < Array.length bucket_bounds then bucket_bounds.(i) else infinity),
          !cum ))
  end

(* Bucket-resolution quantile estimate: the upper bound of the first
   bucket whose cumulative count reaches q·count, clamped into
   [min, max]. Log-scale buckets give a conservative (rounded-up)
   answer good to a factor of 4 — enough for a live latency table. *)
let percentile m q =
  if m.m_kind <> Histogram || m.m_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int m.m_count))) in
    let n = Array.length bucket_bounds in
    let rec go i cum =
      if i >= n_buckets then m.m_max
      else
        let cum = cum + m.m_buckets.(i) in
        if cum >= target then
          if i >= n then m.m_max else Float.min bucket_bounds.(i) m.m_max
        else go (i + 1) cum
    in
    Float.max m.m_min (go 0 0)
  end

let fl v =
  if Float.is_nan v || Float.abs v = infinity then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "metric,kind,index,value,count,sum,min,max,mean\n";
  List.iter
    (fun name ->
      let m = Hashtbl.find t.tbl name in
      let vmin = if m.m_count = 0 then 0.0 else m.m_min in
      let vmax = if m.m_count = 0 then 0.0 else m.m_max in
      let summary =
        Printf.sprintf "%s,%s,,%s,%d,%s,%s,%s,%s\n" m.m_name (kind_label m.m_kind)
          (fl (value m)) m.m_count (fl m.m_sum) (fl vmin) (fl vmax) (fl (mean m))
      in
      Buffer.add_string buf summary;
      if m.m_kind = Series then
        for i = 0 to m.m_len - 1 do
          Buffer.add_string buf
            (Printf.sprintf "%s,point,%d,%s,,,,,\n" m.m_name i (fl m.m_series.(i)))
        done)
    (names t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  let first = ref true in
  List.iter
    (fun name ->
      let m = Hashtbl.find t.tbl name in
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\": {\"kind\": \"%s\", \"count\": %d, \"sum\": %s"
           (Trace_check.json_escape m.m_name) (kind_label m.m_kind) m.m_count (fl m.m_sum));
      if m.m_count > 0 then
        Buffer.add_string buf
          (Printf.sprintf ", \"min\": %s, \"max\": %s, \"mean\": %s, \"last\": %s" (fl m.m_min)
             (fl m.m_max) (fl (mean m)) (fl m.m_last));
      if m.m_kind = Series then begin
        Buffer.add_string buf ", \"values\": [";
        for i = 0 to m.m_len - 1 do
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (fl m.m_series.(i))
        done;
        Buffer.add_string buf "]"
      end;
      Buffer.add_string buf "}")
    (names t);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* --- Prometheus text exposition ----------------------------------------- *)

(* Metric names mangle to [gpuaco_<name>] with every character outside
   [A-Za-z0-9_] replaced by '_'. The per-client admission counters
   ([serve.client.<c>.requests]) collapse into one family with the
   client as a label — client names arrive off the wire, so label
   values are escaped per the exposition format (backslash, quote,
   newline). Series metrics are omitted: a growing vector has no
   Prometheus sample shape; they stay in the CSV/JSON exports. *)

let prom_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "gpuaco_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prom_label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [serve.client.<c>.requests] -> family + client label; everything
   else is its own unlabeled family. *)
let prom_family name =
  let pre = "serve.client." and suf = ".requests" in
  let lp = String.length pre and ls = String.length suf and ln = String.length name in
  if
    ln > lp + ls
    && String.equal (String.sub name 0 lp) pre
    && String.equal (String.sub name (ln - ls) ls) suf
  then ("gpuaco_serve_client_requests", Some ("client", String.sub name lp (ln - lp - ls)))
  else (prom_name name, None)

let prom_labels = function
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_escape v)) kvs)
      ^ "}"

let to_prometheus t =
  locked t (fun () ->
      (* Group samples by family, families in the order of their first
         name, so all samples of one family are contiguous as the
         exposition format requires. *)
      let fams = Hashtbl.create 16 in
      let order = ref [] in
      let family fam ty =
        match Hashtbl.find_opt fams fam with
        | Some lines -> lines
        | None ->
            let lines = ref [ Printf.sprintf "# TYPE %s %s" fam ty ] in
            Hashtbl.add fams fam lines;
            order := fam :: !order;
            lines
      in
      List.iter
        (fun name ->
          let m = Hashtbl.find t.tbl name in
          let fam, client = prom_family m.m_name in
          let lbl extra =
            prom_labels ((match client with Some kv -> [ kv ] | None -> []) @ extra)
          in
          match m.m_kind with
          | Counter ->
              let lines = family fam "counter" in
              lines := Printf.sprintf "%s%s %s" fam (lbl []) (fl m.m_sum) :: !lines
          | Gauge ->
              let lines = family fam "gauge" in
              let v = if m.m_count = 0 then 0.0 else m.m_last in
              lines := Printf.sprintf "%s%s %s" fam (lbl []) (fl v) :: !lines
          | Histogram ->
              let lines = family fam "histogram" in
              let cum = ref 0 in
              Array.iteri
                (fun i n ->
                  cum := !cum + n;
                  let le =
                    if i < Array.length bucket_bounds then fl bucket_bounds.(i)
                    else "+Inf"
                  in
                  lines :=
                    Printf.sprintf "%s_bucket%s %d" fam (lbl [ ("le", le) ]) !cum
                    :: !lines)
                m.m_buckets;
              lines := Printf.sprintf "%s_sum%s %s" fam (lbl []) (fl m.m_sum) :: !lines;
              lines := Printf.sprintf "%s_count%s %d" fam (lbl []) m.m_count :: !lines
          | Series -> ())
        (sorted_names t);
      let buf = Buffer.create 4096 in
      List.iter
        (fun fam ->
          List.iter
            (fun line ->
              Buffer.add_string buf line;
              Buffer.add_char buf '\n')
            (List.rev !(Hashtbl.find fams fam)))
        (List.rev !order);
      Buffer.contents buf)

let write_file file text =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      close_out oc)

let write_csv t file = write_file file (to_csv t)
let write_json t file = write_file file (to_json t)
