(** Bechamel microbenchmarks of the store primitives: the red-black tree
    against the stdlib containers, interval-tree stabbing, pattern
    matching, and the wire codec. These quantify the §6 discussion that
    ordered stores pay versus hash tables, and what the per-operation
    costs underlying the macro results are. *)

open Bechamel
open Toolkit

module Rbtree = Pequod_store.Rbtree
module Interval_map = Pequod_store.Interval_map
module Pattern = Pequod_pattern.Pattern
module Message = Pequod_proto.Message

let nkeys = 10_000

let keys = Array.init nkeys (fun i -> Printf.sprintf "t|u%05d|%010d|p%03d" (i mod 97) i (i mod 31))

let make_rbtree () =
  let t = Rbtree.create ~dummy:0 () in
  Array.iteri (fun i k -> ignore (Rbtree.insert t k i)) keys;
  t

let make_hashtbl () =
  let h = Hashtbl.create nkeys in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  h

let bench_rbtree_insert =
  Test.make ~name:"rbtree insert 10k" (Staged.stage (fun () -> ignore (make_rbtree ())))

let bench_hashtbl_insert =
  Test.make ~name:"hashtbl insert 10k" (Staged.stage (fun () -> ignore (make_hashtbl ())))

let bench_rbtree_lookup =
  let t = make_rbtree () in
  let i = ref 0 in
  Test.make ~name:"rbtree lookup"
    (Staged.stage (fun () ->
         i := (!i + 7) mod nkeys;
         ignore (Rbtree.find t keys.(!i))))

let bench_hashtbl_lookup =
  let h = make_hashtbl () in
  let i = ref 0 in
  Test.make ~name:"hashtbl lookup"
    (Staged.stage (fun () ->
         i := (!i + 7) mod nkeys;
         ignore (Hashtbl.find_opt h keys.(!i))))

let bench_rbtree_hinted_append =
  Test.make ~name:"rbtree hinted append 1k"
    (Staged.stage (fun () ->
         let t = Rbtree.create ~dummy:0 () in
         let hint = ref None in
         for i = 0 to 999 do
           let k = Printf.sprintf "t|u|%010d" i in
           let node, _ =
             match !hint with
             | Some h -> Rbtree.insert_after t ~hint:h k i
             | None -> Rbtree.insert t k i
           in
           hint := Some node
         done))

(* §4.1: subtables turn whole-table O(log N) descents into an O(1) hash
   jump plus a descent of a tiny per-boundary tree. The effect needs a
   big table: 400k keys across 4k boundaries. *)
let big_nkeys = 400_000

let big_keys =
  Array.init big_nkeys (fun i ->
      Printf.sprintf "t|u%05d|%010d|p%03d" (i mod 4001) i (i mod 31))

let make_table ~subtables =
  let t =
    Pequod_store.Table.create
      ?subtable_depth:(if subtables then Some 2 else None)
      ~name:"t" ~dummy:0 ()
  in
  Array.iteri (fun i k -> ignore (Pequod_store.Table.put t k i)) big_keys;
  t

let bench_table_get_subtables =
  let t = make_table ~subtables:true in
  let i = ref 0 in
  Test.make ~name:"table get, 400k keys (subtables)"
    (Staged.stage (fun () ->
         i := (!i + 7919) mod big_nkeys;
         ignore (Pequod_store.Table.get t big_keys.(!i))))

let bench_table_get_flat =
  let t = make_table ~subtables:false in
  let i = ref 0 in
  Test.make ~name:"table get, 400k keys (one tree)"
    (Staged.stage (fun () ->
         i := (!i + 7919) mod big_nkeys;
         ignore (Pequod_store.Table.get t big_keys.(!i))))

let bench_rbtree_fresh_insert_1k =
  Test.make ~name:"rbtree unhinted insert 1k"
    (Staged.stage (fun () ->
         let t = Rbtree.create ~dummy:0 () in
         for i = 0 to 999 do
           ignore (Rbtree.insert t (Printf.sprintf "t|u|%010d" i) i)
         done))

let bench_interval_stab =
  let im = Interval_map.create () in
  let () =
    for i = 0 to 999 do
      let lo = Printf.sprintf "p|u%04d|" (i mod 200) in
      ignore (Interval_map.add im ~lo ~hi:(Strkey.prefix_upper lo) i)
    done
  in
  let i = ref 0 in
  Test.make ~name:"interval stab (1k updaters)"
    (Staged.stage (fun () ->
         i := (!i + 13) mod 200;
         let k = Printf.sprintf "p|u%04d|0100" !i in
         Interval_map.stab im k (fun _ -> ())))

let bench_pattern_match =
  let names = ref [] in
  let intern n =
    let rec go i = function
      | [] ->
        names := !names @ [ n ];
        i
      | x :: r -> if x = n then i else go (i + 1) r
    in
    go 0 !names
  in
  let p = Pattern.parse ~intern "t|<user>|<time>|<poster>" in
  let bindings = Array.make 3 None in
  Test.make ~name:"pattern match_key"
    (Staged.stage (fun () -> ignore (Pattern.match_key p "t|u00042|0000001234|p007" ~bindings)))

let bench_codec_roundtrip =
  let req = Message.Scan { lo = "t|u00042|0000001234"; hi = "t|u00042}" } in
  Test.make ~name:"message encode+decode"
    (Staged.stage (fun () -> ignore (Message.decode_request (Message.encode_request req))))

(* The batched write pipeline, measured at the engine level: sequential
   puts pay table resolution, a full tree descent and an updater stab per
   key; put_batch sorts once, threads insertion hints across each run and
   coalesces the stabs. Sorted vs shuffled separates the hint win from
   the stab/resolution win; the updater variants add a live copy join so
   the coalesced-stab path is on the measured path. *)
module Engine = Pequod_core.Server

let batch_pairs n = List.init n (fun i -> (Printf.sprintf "b|u%03d|%010d" (i / 256) i, "v"))

let shuffled_pairs n =
  let a = Array.of_list (batch_pairs n) in
  let rng = Rng.create 0xBA7C4 in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let bench_put_path ~name ~batched ~updater pairs =
  Test.make ~name
    (Staged.stage (fun () ->
         let s = Engine.create () in
         if updater then begin
           Engine.add_join_exn s "bb|<u>|<i> = copy b|<u>|<i>";
           (* materialize the (empty) output range so its updater is
              installed before the writes arrive *)
           ignore (Engine.scan s ~lo:"bb|" ~hi:"bb}")
         end;
         if batched then Engine.put_batch s pairs
         else List.iter (fun (k, v) -> Engine.put s k v) pairs))

let put_seq_10k_sorted = "server put 10k sequential (sorted)"
let put_batch_10k_sorted = "server put 10k batched (sorted)"

let batch_tests =
  let p1k = batch_pairs 1_000 in
  let p10k = batch_pairs 10_000 in
  let s10k = shuffled_pairs 10_000 in
  [
    bench_put_path ~name:"server put 1k sequential (sorted)" ~batched:false ~updater:false p1k;
    bench_put_path ~name:"server put 1k batched (sorted)" ~batched:true ~updater:false p1k;
    bench_put_path ~name:put_seq_10k_sorted ~batched:false ~updater:false p10k;
    bench_put_path ~name:put_batch_10k_sorted ~batched:true ~updater:false p10k;
    bench_put_path ~name:"server put 10k sequential (shuffled)" ~batched:false ~updater:false s10k;
    bench_put_path ~name:"server put 10k batched (shuffled)" ~batched:true ~updater:false s10k;
    bench_put_path ~name:"server put 1k sequential (sorted, updater)" ~batched:false ~updater:true
      p1k;
    bench_put_path ~name:"server put 1k batched (sorted, updater)" ~batched:true ~updater:true p1k;
  ]

(* The engine's share of a cold timeline read on a compute server: a
   collect-mode scan misses the user's subscriptions, the host feeds them,
   the retry misses the followees' posts, the host feeds those, and the
   last retry computes the timeline. Transport is out of the picture: the
   feeds come from a precomputed home, so the case is core-layer cost. *)
let cold_follows = 8
let cold_posts = 20

let cold_home =
  List.init cold_follows (fun f -> (Printf.sprintf "s|ann|u%03d" f, "1"))
  @ List.concat
      (List.init cold_follows (fun f ->
           List.init cold_posts (fun i -> (Printf.sprintf "p|u%03d|%010d" f i, "post"))))

(* the home's rows of one fetched range, filtered once per range *)
let cold_rows =
  let memo = Hashtbl.create 16 in
  fun lo hi ->
    match Hashtbl.find_opt memo lo with
    | Some rows -> rows
    | None ->
      let rows = List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) cold_home in
      Hashtbl.add memo lo rows;
      rows

let bench_cold_timeline =
  Test.make ~name:"cold timeline compute (collect miss → feed → retry)"
    (Staged.stage (fun () ->
         let s = Engine.create () in
         Engine.add_join_exn s
           "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>";
         Engine.set_resolver s (fun ~table:_ ~lo:_ ~hi:_ -> Engine.Deferred);
         let rec retry n =
           match Engine.scan_result s ~lo:"t|ann|" ~hi:"t|ann}" with
           | `Ok _ -> ()
           | `Missing _ when n >= 8 -> failwith "cold timeline compute: no convergence"
           | `Missing ranges ->
             List.iter
               (fun (table, lo, hi) -> Engine.feed_base s ~table ~lo ~hi (cold_rows lo hi))
               ranges;
             retry (n + 1)
         in
         retry 0))

let all_tests =
  [
    bench_rbtree_insert;
    bench_hashtbl_insert;
    bench_rbtree_lookup;
    bench_hashtbl_lookup;
    bench_rbtree_hinted_append;
    bench_rbtree_fresh_insert_1k;
    bench_table_get_subtables;
    bench_table_get_flat;
    bench_interval_stab;
    bench_pattern_match;
    bench_codec_roundtrip;
  ]
  @ batch_tests
  @ [ bench_cold_timeline ]

(** Measured ns/run per benchmark, in declaration order ([None] when the
    OLS fit fails). *)
let run () =
  (* PEQUOD_MICRO_QUOTA (seconds per benchmark) lets CI run a smoke pass
     in a few seconds; unset keeps the full-fidelity default *)
  let quota =
    match Sys.getenv_opt "PEQUOD_MICRO_QUOTA" with
    | Some s -> ( match float_of_string_opt s with Some q when q > 0.0 -> q | _ -> 0.25)
    | None -> 0.25
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:(Some 500) () in
  let instances = Instance.[ monotonic_clock ] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, Some est) :: acc
          | _ -> (name, None) :: acc)
        analyzed [])
    all_tests

(* A small canned engine workload (the paper's Twip shape) whose registry
   snapshot is embedded in BENCH_micro.json: the perf trajectory then
   carries op/maintenance counts alongside ns/run figures, so a regression
   can be attributed (more work? or slower work?). Deterministic, so the
   counts are comparable across runs. *)
let registry_snapshot () =
  let module Server = Pequod_core.Server in
  let s = Server.create () in
  Server.add_join_exn s "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>";
  for u = 0 to 19 do
    for v = 0 to 4 do
      Server.put s
        (Printf.sprintf "s|u%03d|u%03d" u ((u + v) mod 20))
        "1"
    done
  done;
  for p = 0 to 19 do
    for i = 0 to 9 do
      Server.put s (Printf.sprintf "p|u%03d|%010d" p i) (Printf.sprintf "post %d by %d" i p)
    done
  done;
  for u = 0 to 19 do
    ignore (Server.scan s ~lo:(Printf.sprintf "t|u%03d|" u) ~hi:(Printf.sprintf "t|u%03d}" u))
  done;
  for p = 0 to 19 do
    Server.put s (Printf.sprintf "p|u%03d|%010d" p 10) "fresh post"
  done;
  Obs.json_of_snapshot (Server.metrics_snapshot s)

(* ratios worth tracking as first-class numbers, recomputed from the
   measured results so the JSON carries the claim, not just the inputs *)
let derived_of results =
  let find name = match List.assoc_opt name results with Some (Some v) -> Some v | _ -> None in
  match (find put_seq_10k_sorted, find put_batch_10k_sorted) with
  | Some seq, Some batch when batch > 0.0 ->
    [ ("put_batch 10k sorted speedup", seq /. batch) ]
  | _ -> []

(* provenance stamping (commit + ISO date + derived entries) is shared
   with BENCH_cluster.json through Benchstamp, so the files cannot
   drift in schema *)
let write_json ~path ?registry results =
  Benchstamp.write_file ~path ~benchmark:"micro" ~derived:(derived_of results)
    ([ ("unit", Benchstamp.String "ns/run");
       ( "results",
         Benchstamp.Obj
           (List.map
              (fun (name, est) ->
                (name, match est with Some v -> Benchstamp.Float v | None -> Benchstamp.Null))
              results) ) ]
    @ match registry with Some json -> [ ("registry", Benchstamp.Raw json) ] | None -> [])

let run_and_print () =
  let results = run () in
  let tbl =
    Tablefmt.create ~title:"Microbenchmarks (store primitives)"
      ~headers:[ "Benchmark"; "ns/run" ] ~aligns:[ Tablefmt.Left; Right ]
  in
  List.iter
    (fun (name, est) ->
      Tablefmt.add_row tbl
        [ name; (match est with Some v -> Tablefmt.fmt_float ~decimals:1 v | None -> "n/a") ])
    results;
  Tablefmt.print tbl;
  let json = "BENCH_micro.json" in
  write_json ~path:json ~registry:(registry_snapshot ()) results;
  Printf.printf "(wrote %s)\n" json
