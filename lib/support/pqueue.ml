type 'a t = { mutable data : 'a array; mutable size : int; cmp : 'a -> 'a -> int }

let create ~cmp = { data = [||]; size = 0; cmp }

let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 8 (cap * 2) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) > 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!best) > 0 then best := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!best) > 0 then best := r;
  if !best <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!best);
    t.data.(!best) <- tmp;
    sift_down t !best
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.data.(0)

let clear t = t.size <- 0
