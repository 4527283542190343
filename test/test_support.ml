let test_rng_determinism () =
  let a = Support.Rng.create 42 and b = Support.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Support.Rng.int64 a) (Support.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Support.Rng.create 1 and b = Support.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Support.Rng.int64 a) (Support.Rng.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_bounds () =
  let rng = Support.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Support.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Support.Rng.float rng in
    Alcotest.(check bool) "unit interval" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let parent = Support.Rng.create 3 in
  let c1 = Support.Rng.split parent in
  let c2 = Support.Rng.split parent in
  Alcotest.(check bool) "children differ" false
    (Int64.equal (Support.Rng.int64 c1) (Support.Rng.int64 c2))

(* [split] seeds every ant's stream, once per ant start: its output must
   stay bit-identical to the boxed splitmix64 seeding it replaced (the
   first words below were recorded from that formulation), and it must
   allocate nothing but the 4-float state (5 words with its header). *)
let test_rng_split_pinned () =
  List.iter
    (fun (seed, words) ->
      let r = Support.Rng.split (Support.Rng.create seed) in
      List.iter
        (fun w -> Alcotest.(check int64) (Printf.sprintf "seed %d" seed) w (Support.Rng.int64 r))
        words)
    [
      (0, [ -1925114433886751451L; -3506192500380777438L; 7330353808519802590L ]);
      (1, [ 2736766839171971727L; 1646259440506682318L; -2296052418629018881L ]);
      (42, [ 5745406364259058299L; -3749950290529424113L; -1760308716576054147L ]);
      (-7, [ 5609948333999071977L; -5002771602006526832L; -3194260492309359831L ]);
      (1 lsl 40, [ 1498030436881719218L; 4797739087649933972L; 6120452013769425776L ]);
    ];
  let parent = Support.Rng.create 3 in
  let per_call =
    Tu.minor_words_per_call ~calls:10_000 (fun () ->
        ignore (Sys.opaque_identity (Support.Rng.split parent)))
  in
  if per_call > 5.0 then Alcotest.failf "Rng.split allocates %.2f words per call (max 5)" per_call

let test_rng_copy () =
  let a = Support.Rng.create 9 in
  ignore (Support.Rng.int64 a);
  let b = Support.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Support.Rng.int64 a) (Support.Rng.int64 b)

let test_rng_shuffle_permutation () =
  let rng = Support.Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Support.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_bitset_basic () =
  let s = Support.Bitset.create 200 in
  Alcotest.(check bool) "empty" true (Support.Bitset.is_empty s);
  Support.Bitset.add s 0;
  Support.Bitset.add s 63;
  Support.Bitset.add s 199;
  Alcotest.(check int) "cardinal" 3 (Support.Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Support.Bitset.mem s 63);
  Alcotest.(check bool) "not mem 100" false (Support.Bitset.mem s 100);
  Support.Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Support.Bitset.mem s 63);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 199 ] (Support.Bitset.to_list s)

let test_bitset_out_of_range () =
  let s = Support.Bitset.create 10 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Support.Bitset.add s 10)

let bitset_of_list n l = Support.Bitset.of_list n l

let prop_bitset_union =
  QCheck.Test.make ~name:"bitset union = list union" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = bitset_of_list 100 xs and b = bitset_of_list 100 ys in
      Support.Bitset.union_into ~into:a b;
      Support.Bitset.to_list a = List.sort_uniq compare (xs @ ys))

let prop_bitset_inter =
  QCheck.Test.make ~name:"inter_cardinal = list intersection size" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = bitset_of_list 100 xs and b = bitset_of_list 100 ys in
      let expected =
        List.length (List.filter (fun x -> List.mem x (List.sort_uniq compare ys))
                       (List.sort_uniq compare xs))
      in
      Support.Bitset.inter_cardinal a b = expected)

let prop_bitset_diff_subset =
  QCheck.Test.make ~name:"diff is subset of original" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = bitset_of_list 100 xs and b = bitset_of_list 100 ys in
      let d = Support.Bitset.copy a in
      Support.Bitset.diff_into ~into:d b;
      Support.Bitset.subset d a)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Support.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Support.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Support.Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Support.Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Support.Stats.percentile 0.0 [ 2.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p100 is max" 3.0 (Support.Stats.percentile 1.0 [ 2.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Support.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_cv () =
  Alcotest.(check (float 1e-9)) "cv of constants" 0.0
    (Support.Stats.coeff_of_variation [ 5.0; 5.0; 5.0 ])

let test_stats_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Support.Stats.mean []))

let test_stats_geomean_nonpositive () =
  Alcotest.check_raises "geomean rejects zero"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Support.Stats.geomean [ 1.0; 0.0 ]))

let test_histogram () =
  let h = Support.Stats.histogram ~edges:[| 0.0; 1.0; 2.0; 3.0 |] [ 0.5; 1.5; 1.9; 2.5; -1.0; 9.0 ] in
  Alcotest.(check (array int)) "counts with clamping" [| 2; 2; 2 |] h.Support.Stats.counts;
  Alcotest.(check int) "total" 6 h.Support.Stats.total;
  let rendered =
    Support.Stats.render_histogram ~title:"t" ~label:(fun i -> string_of_int i) h
  in
  Alcotest.(check bool) "has bars" true (String.length rendered > 10)

let prop_stats_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean (AM-GM)" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0.01 100.0))
    (fun xs -> Support.Stats.geomean xs <= Support.Stats.mean xs +. 1e-9)

let test_pqueue_drains_sorted () =
  let q = Support.Pqueue.create ~cmp:Int.compare in
  List.iter (Support.Pqueue.push q) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  let rec drain acc =
    match Support.Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "max-heap order" [ 9; 6; 5; 4; 3; 2; 1; 1 ] (drain [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(small_list int)
    (fun xs ->
      let q = Support.Pqueue.create ~cmp:Int.compare in
      List.iter (Support.Pqueue.push q) xs;
      let rec drain acc =
        match Support.Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort (fun a b -> compare b a) xs)

let test_pqueue_peek_clear () =
  let q = Support.Pqueue.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "peek empty" None (Support.Pqueue.peek q);
  Support.Pqueue.push q 5;
  Support.Pqueue.push q 7;
  Alcotest.(check (option int)) "peek max" (Some 7) (Support.Pqueue.peek q);
  Alcotest.(check int) "length" 2 (Support.Pqueue.length q);
  Support.Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Support.Pqueue.is_empty q)

(* --- the pooled store of a colony's lanes --------------------------------- *)

(* The pool tests run on a domain of their own: its free lists start
   empty, so what a take finds is exactly what the test parked. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let test_store_halves_independent () =
  on_fresh_domain (fun () ->
      let big_ints = Support.Arena.take ~ints:4096 ~rows:1 ~cols:1 in
      let ints = Support.Arena.ints big_ints in
      ints.(Support.Arena.alloc_ints big_ints 4096 + 17) <- 5;
      let scores = (Support.Arena.scores big_ints).Support.Fmat.data in
      Support.Arena.give big_ints;
      let before = Support.Arena.reuses () in
      let big_scores = Support.Arena.take ~ints:16 ~rows:64 ~cols:40 in
      Alcotest.(check bool) "the int half is reused" true
        (Support.Arena.ints big_scores == ints);
      Alcotest.(check bool) "the reused int half comes back zeroed" true
        (Array.for_all (fun x -> x = 0) ints);
      Alcotest.(check bool) "the matrix half is allocated" false
        ((Support.Arena.scores big_scores).Support.Fmat.data == scores);
      Alcotest.(check int) "one half served from the pool" 1
        (Support.Arena.reuses () - before);
      Alcotest.(check int) "the matrix is as requested" (64 * 40)
        (Support.Fmat.rows (Support.Arena.scores big_scores)
        * Support.Fmat.stride (Support.Arena.scores big_scores)))

(* Lanes of [graph] on a store from [Ant.lanes], each lane on its own
   heuristic and seed, through both passes: what every lane built. *)
let lane_outcomes graph shared =
  let params = Tu.test_params in
  let ants = Aco.Ant.lanes shared ~count:4 params in
  let pheromone = Aco.Pheromone.create ~n:graph.Ddg.Graph.n ~initial:1.0 in
  Aco.Pheromone.deposit_path pheromone (Array.init graph.Ddg.Graph.n Fun.id) 0.75;
  let heuristics = Array.of_list Sched.Heuristic.all in
  let outcomes =
    List.concat_map
      (fun mode ->
        List.mapi
          (fun lane ant ->
            Aco.Ant.start ant ~rng:(Support.Rng.create lane)
              ~heuristic:heuristics.(lane mod Array.length heuristics)
              ~allow_optional_stalls:true mode;
            Aco.Ant.run_to_completion ant ~pheromone;
            (Aco.Ant.order ant, Aco.Ant.length ant, Aco.Ant.rp_peaks ant))
          (Array.to_list ants))
      [ Aco.Ant.Rp_pass; Aco.Ant.Ilp_pass { target_vgpr = 24; target_sgpr = 80 } ]
  in
  Aco.Ant.release ants;
  outcomes

let test_reused_store_lanes () =
  let graph = Ddg.Graph.build (Tu.random_region ~max_size:20 3) in
  let larger = Ddg.Graph.build (Tu.random_region ~max_size:60 4) in
  let shared = Tu.shared_of_graph graph in
  let fresh = on_fresh_domain (fun () -> lane_outcomes graph shared) in
  let reused =
    on_fresh_domain (fun () ->
        ignore (lane_outcomes larger (Tu.shared_of_graph larger));
        let before = Support.Arena.reuses () in
        let outcomes = lane_outcomes graph shared in
        Alcotest.(check int) "both halves of the larger store reused" 2
          (Support.Arena.reuses () - before);
        outcomes)
  in
  Alcotest.(check (list (triple (array int) int (pair int int))))
    "orders, lengths and peaks as on a fresh store" fresh reused

let test_pool_observer () =
  (* the process-global observer sees the pool's lifecycle: lazy spawns
     first, then one acquire/release pair per fan-out, with the worker
     count. The callback runs on whichever domain fires the event, so
     collection is mutex-guarded. *)
  let events = ref [] in
  let lock = Mutex.create () in
  Support.Domain_pool.set_observer
    (Some
       (fun e ->
         Mutex.lock lock;
         events := e :: !events;
         Mutex.unlock lock));
  let pool = Support.Domain_pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () ->
      Support.Domain_pool.set_observer None;
      Support.Domain_pool.shutdown pool)
    (fun () ->
      Support.Domain_pool.parallel_for pool ~workers:3 3 (fun _ _ -> ());
      Support.Domain_pool.parallel_for pool ~workers:3 3 (fun _ _ -> ());
      let seen = List.rev !events in
      let count p = List.length (List.filter p seen) in
      Alcotest.(check int) "helpers spawned once, lazily" 2
        (count (function Support.Domain_pool.Spawned _ -> true | _ -> false));
      Alcotest.(check int) "one acquire per run" 2
        (count (function Support.Domain_pool.Acquired 3 -> true | _ -> false));
      Alcotest.(check int) "one release per run" 2
        (count (function Support.Domain_pool.Released 3 -> true | _ -> false));
      (* spawning precedes the first release (workers exist by the time
         the run finishes) *)
      (match seen with
      | Support.Domain_pool.Acquired _ :: _ | Support.Domain_pool.Spawned _ :: _ -> ()
      | _ -> Alcotest.fail "first event is neither acquire nor spawn");
      (* a cleared observer costs nothing and sees nothing *)
      Support.Domain_pool.set_observer None;
      let before = List.length !events in
      Support.Domain_pool.parallel_for pool ~workers:3 3 (fun _ _ -> ());
      Alcotest.(check int) "cleared observer sees nothing" before
        (List.length !events))

(* The [parallel_for] cases run on three helpers, more than most hosts
   have spare cores, so the workers race on any runner. *)
let with_pool f =
  let pool = Support.Domain_pool.create ~size:3 () in
  Fun.protect ~finally:(fun () -> Support.Domain_pool.shutdown pool) (fun () -> f pool)

let test_parallel_for_exactly_once () =
  with_pool (fun pool ->
      let lanes = Support.Domain_pool.size pool + 1 in
      List.iter
        (fun workers ->
          List.iter
            (fun n ->
              let hits = Array.init n (fun _ -> Atomic.make 0) in
              let worker_ok = Atomic.make true in
              Support.Domain_pool.parallel_for pool ~workers n (fun w i ->
                  if w < 0 || w >= min workers lanes then Atomic.set worker_ok false;
                  Atomic.incr hits.(i));
              let case = Printf.sprintf "workers=%d n=%d" workers n in
              Alcotest.(check (array int))
                (case ^ ": every index runs once")
                (Array.make n 1) (Array.map Atomic.get hits);
              Alcotest.(check bool)
                (case ^ ": worker indices below min workers (size + 1)")
                true (Atomic.get worker_ok))
            [ 0; 1; 3; 1000 ])
        [ 1; 4; 8 ])

exception Boom

let test_parallel_for_failure () =
  with_pool (fun pool ->
      let n = 1000 and workers = 4 in
      (* One index raises, on the caller or on a helper, once every worker
         is inside an index, and the others hold theirs until it has
         raised: the failure always lands while the other workers are
         mid-index. The waits give up after five seconds of CPU time, so
         a pool that never goes parallel fails instead of hanging. *)
      List.iter
        (fun (on, raises) ->
          let deadline = Sys.time () +. 5.0 in
          let wait_for cond =
            while (not (cond ())) && Sys.time () < deadline do
              Domain.cpu_relax ()
            done
          in
          let running = Atomic.make 0 in
          let chosen = Atomic.make false and failed = Atomic.make false in
          match
            Support.Domain_pool.parallel_for pool ~workers n (fun w _ ->
                Atomic.incr running;
                Fun.protect
                  ~finally:(fun () -> Atomic.decr running)
                  (fun () ->
                    if raises w && Atomic.compare_and_set chosen false true then begin
                      wait_for (fun () -> Atomic.get running = workers);
                      Atomic.set failed true;
                      raise Boom
                    end;
                    wait_for (fun () -> Atomic.get failed);
                    for _ = 1 to 200 do
                      Domain.cpu_relax ()
                    done))
          with
          | () -> Alcotest.failf "failure on the %s did not propagate" on
          | exception Boom ->
              Alcotest.(check int)
                (Printf.sprintf "failure on the %s: no index still running" on)
                0 (Atomic.get running))
        [ ("caller", fun w -> w = 0); ("helper", fun w -> w > 0) ];
      (* the pool was released: a further call acquires it and runs in full *)
      let acquired = Atomic.make 0 in
      Support.Domain_pool.set_observer
        (Some (function Support.Domain_pool.Acquired _ -> Atomic.incr acquired | _ -> ()));
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Fun.protect
        ~finally:(fun () -> Support.Domain_pool.set_observer None)
        (fun () ->
          Support.Domain_pool.parallel_for pool ~workers n (fun _ i ->
              Atomic.incr hits.(i)));
      Alcotest.(check int) "the next call acquires the pool" 1 (Atomic.get acquired);
      Alcotest.(check (array int)) "the next call runs every index once"
        (Array.make n 1) (Array.map Atomic.get hits))

let test_parallel_for_nested () =
  (* a call from inside a running [f] finds the pool busy: every inner
     index runs on the domain that made the call, as its worker 0 *)
  with_pool (fun pool ->
      let outer = 8 and inner = 50 in
      let hits = Array.init (outer * inner) (fun _ -> Atomic.make 0) in
      let elsewhere = Atomic.make 0 in
      Support.Domain_pool.parallel_for pool ~workers:4 outer (fun _ o ->
          let caller = Domain.self () in
          Support.Domain_pool.parallel_for pool ~workers:4 inner (fun w i ->
              if w <> 0 || Domain.self () <> caller then Atomic.incr elsewhere;
              Atomic.incr hits.((o * inner) + i)));
      Alcotest.(check (array int)) "every inner index runs once"
        (Array.make (outer * inner) 1) (Array.map Atomic.get hits);
      Alcotest.(check int) "inner indices run on the calling domain" 0
        (Atomic.get elsewhere))

let test_tablefmt () =
  let s =
    Support.Tablefmt.render ~title:"T" ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check string) "pct" "5.52%" (Support.Tablefmt.pct 0.0552);
  Alcotest.(check string) "pctf" "12.30%" (Support.Tablefmt.pctf 12.3);
  Alcotest.(check string) "thousands" "181,883" (Support.Tablefmt.int 181883);
  Alcotest.(check string) "negative thousands" "-1,234" (Support.Tablefmt.int (-1234))

(* Support.Lru against a list model, least recently used first: [find]
   and [add] move a key to the back, [mem] leaves the order alone, a new
   key at capacity evicts the first entry that is not pinned (a value
   carries its own pin), and a capacity <= 0 keeps nothing. *)
type lru_op = Find of int | Mem of int | Add of int * bool | Remove of int

let lru_bumped = ref 0
let lru_skipped_pin = ref 0
let lru_dropped = ref 0

let prop_lru_model =
  let op =
    QCheck.Gen.(
      let key = int_bound 5 in
      frequency
        [
          (3, map (fun k -> Find k) key);
          (2, map (fun k -> Mem k) key);
          (5, map2 (fun k p -> Add (k, p = 0)) key (int_bound 3));
          (1, map (fun k -> Remove k) key);
        ])
  in
  let print_op = function
    | Find k -> Printf.sprintf "find %d" k
    | Mem k -> Printf.sprintf "mem %d" k
    | Add (k, p) -> Printf.sprintf "add%s %d" (if p then " pinned" else "") k
    | Remove k -> Printf.sprintf "remove %d" k
  in
  QCheck.Test.make ~name:"lru matches a list model" ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(pair (int_range (-1) 4) (list_size (int_bound 30) op)))
    (fun (capacity, ops) ->
      let t = Support.Lru.create capacity in
      (* (key, (stamp, pinned)), least recently used first *)
      let model = ref [] in
      let touch k v = model := List.remove_assoc k !model @ [ (k, v) ] in
      let step i op =
        match op with
        | Find k ->
            let expect = List.assoc_opt k !model in
            (match !model with
            | (lru, _) :: _ :: _ when lru = k -> incr lru_bumped
            | _ -> ());
            Option.iter (touch k) expect;
            Support.Lru.find t k = expect
        | Mem k -> Support.Lru.mem t k = List.mem_assoc k !model
        | Remove k ->
            Support.Lru.remove t k;
            model := List.remove_assoc k !model;
            true
        | Add (k, pinned) ->
            let v = (i, pinned) in
            let evicted =
              if capacity <= 0 then begin
                incr lru_dropped;
                false
              end
              else begin
                let victim =
                  if List.mem_assoc k !model || List.length !model < capacity then None
                  else List.find_opt (fun (_, (_, p)) -> not p) !model
                in
                (match (victim, !model) with
                | Some (vk, _), (first, _) :: _ when vk <> first -> incr lru_skipped_pin
                | _ -> ());
                Option.iter (fun (vk, _) -> model := List.remove_assoc vk !model) victim;
                touch k v;
                victim <> None
              end
            in
            Support.Lru.add ~pinned:snd t k v = evicted
      in
      Support.Lru.capacity t = max 0 capacity
      && List.for_all
           (fun (i, op) ->
             step i op
             && Support.Lru.to_list t = !model
             && Support.Lru.length t = List.length !model)
           (List.mapi (fun i op -> (i, op)) ops))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng split pinned and 5 words" `Quick test_rng_split_pinned;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset range check" `Quick test_bitset_out_of_range;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats cv" `Quick test_stats_cv;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats geomean domain" `Quick test_stats_geomean_nonpositive;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "pqueue drain" `Quick test_pqueue_drains_sorted;
    Alcotest.test_case "pqueue peek/clear" `Quick test_pqueue_peek_clear;
    Alcotest.test_case "store halves are pooled independently" `Quick
      test_store_halves_independent;
    Alcotest.test_case "lanes on a reused store match a fresh store" `Quick
      test_reused_store_lanes;
    Alcotest.test_case "domain pool lifecycle observer" `Quick test_pool_observer;
    Alcotest.test_case "parallel_for runs every index once" `Quick
      test_parallel_for_exactly_once;
    Alcotest.test_case "parallel_for propagates a failure after the join" `Quick
      test_parallel_for_failure;
    Alcotest.test_case "nested parallel_for runs on its caller" `Quick
      test_parallel_for_nested;
    Alcotest.test_case "tablefmt" `Quick test_tablefmt;
  ]
  @ Tu.qtests
      [
        prop_bitset_union;
        prop_bitset_inter;
        prop_bitset_diff_subset;
        prop_stats_geomean_le_mean;
        prop_pqueue_sorted;
      ]
  @ [
      Tu.qtest_witnessed_all
        [
          (lru_bumped, "a find that moves the least recently used entry");
          (lru_skipped_pin, "an eviction past a pinned entry");
          (lru_dropped, "an add dropped at capacity <= 0");
        ]
        prop_lru_model;
    ]
