(* End-to-end tests of the cache-join engine: execution, incremental
   maintenance, lazy invalidation, aggregates, pull/snapshot annotations,
   chained joins, eviction, resolvers — plus the golden property that
   incremental maintenance always equals from-scratch evaluation. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Joinspec = Pequod_pattern.Joinspec

let check_bool = Test_util.check_bool
let check_int = Test_util.check_int
let check_pairs = Test_util.check_pairs
let tm = Test_util.tm

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let make_twip ?config () =
  let s = Server.create ?config () in
  Server.add_join_exn s timeline_join;
  s

let post s poster time text = Server.put s (Printf.sprintf "p|%s|%s" poster (tm time)) text
let subscribe s user poster = Server.put s (Printf.sprintf "s|%s|%s" user poster) "1"
let unsubscribe s user poster = Server.remove s (Printf.sprintf "s|%s|%s" user poster)

let timeline ?(from = 0) s user =
  Server.scan s
    ~lo:(Printf.sprintf "t|%s|%s" user (tm from))
    ~hi:(Strkey.prefix_upper (Printf.sprintf "t|%s|" user))

(* ------------------------------------------------------------------ *)
(* Basic timeline behaviour (§2.2)                                     *)

let test_timeline_basic () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "ann" "liz";
  post s "bob" 100 "hello, world!";
  post s "liz" 124 "i'm hungry";
  post s "jim" 130 "not followed";
  check_pairs "timeline"
    [ ("t|ann|0100|bob", "hello, world!"); ("t|ann|0124|liz", "i'm hungry") ]
    (timeline s "ann");
  Server.validate s

let test_timeline_time_bound () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 90 "old";
  post s "bob" 110 "new";
  check_pairs "only recent" [ ("t|ann|0110|bob", "new") ] (timeline ~from:100 s "ann");
  (* a later scan from 0 extends the materialized range backwards *)
  check_pairs "full" [ ("t|ann|0090|bob", "old"); ("t|ann|0110|bob", "new") ] (timeline s "ann");
  Server.validate s

let test_incremental_post () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "first";
  ignore (timeline s "ann");
  let execs_before = Server.counter s "exec.recompute_region" in
  (* a new post must flow into the materialized timeline eagerly *)
  post s "bob" 120 "second";
  check_pairs "updated"
    [ ("t|ann|0100|bob", "first"); ("t|ann|0120|bob", "second") ]
    (timeline s "ann");
  let execs_after = Server.counter s "exec.recompute_region" in
  check_int "no recompute needed" execs_before execs_after;
  Server.validate s

let test_post_update_and_remove () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "v1";
  ignore (timeline s "ann");
  post s "bob" 100 "v2";
  check_pairs "updated in place" [ ("t|ann|0100|bob", "v2") ] (timeline s "ann");
  Server.remove s ("p|bob|" ^ tm 100);
  check_pairs "removed" [] (timeline s "ann");
  Server.validate s

let test_multiple_followers () =
  let s = make_twip () in
  subscribe s "ann" "liz";
  subscribe s "bob" "liz";
  ignore (timeline s "ann");
  ignore (timeline s "bob");
  post s "liz" 200 "fan out";
  check_pairs "ann" [ ("t|ann|0200|liz", "fan out") ] (timeline s "ann");
  check_pairs "bob" [ ("t|bob|0200|liz", "fan out") ] (timeline s "bob");
  Server.validate s

(* Lazy check-source maintenance (§3.2): subscription changes are logged
   and applied at the next query. *)
let test_subscription_insert () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "from bob";
  post s "liz" 110 "from liz";
  ignore (timeline s "ann");
  subscribe s "ann" "liz";
  check_pairs "liz's old post appears"
    [ ("t|ann|0100|bob", "from bob"); ("t|ann|0110|liz", "from liz") ]
    (timeline s "ann");
  (* and liz's future posts flow eagerly *)
  post s "liz" 120 "more liz";
  check_pairs "new post flows"
    [ ("t|ann|0100|bob", "from bob"); ("t|ann|0110|liz", "from liz");
      ("t|ann|0120|liz", "more liz") ]
    (timeline s "ann");
  Server.validate s

let test_subscription_remove () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "ann" "liz";
  post s "bob" 100 "from bob";
  post s "liz" 110 "from liz";
  ignore (timeline s "ann");
  unsubscribe s "ann" "liz";
  check_pairs "liz gone" [ ("t|ann|0100|bob", "from bob") ] (timeline s "ann");
  (* liz's future posts must not reappear *)
  post s "liz" 120 "ignored";
  check_pairs "still gone" [ ("t|ann|0100|bob", "from bob") ] (timeline s "ann");
  (* but bob is unaffected *)
  post s "bob" 130 "still here";
  check_pairs "bob flows"
    [ ("t|ann|0100|bob", "from bob"); ("t|ann|0130|bob", "still here") ]
    (timeline s "ann");
  Server.validate s

let test_get_on_join_output () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "hi";
  Alcotest.(check (option string)) "get computes" (Some "hi") (Server.get s "t|ann|0100|bob");
  Alcotest.(check (option string)) "get missing" None (Server.get s "t|ann|0999|bob")

let test_scan_includes_base_data () =
  (* a scan is a plain range read: raw keys interleave with join output *)
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "hi";
  let all = Server.scan s ~lo:"" ~hi:"\xfe" in
  check_pairs "everything"
    [ ("p|bob|0100", "hi"); ("s|ann|bob", "1"); ("t|ann|0100|bob", "hi") ]
    all

let test_cross_user_scan () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "cal" "bob";
  post s "bob" 100 "x";
  let got = Server.scan s ~lo:"t|a" ~hi:"t|d" in
  check_pairs "both timelines" [ ("t|ann|0100|bob", "x"); ("t|cal|0100|bob", "x") ] got;
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Aggregates (§2.3)                                                   *)

let karma_join = "karma|<author> = count vote|<author>|<id>|<voter>"

let test_count_aggregate () =
  let s = Server.create () in
  Server.add_join_exn s karma_join;
  Server.put s "vote|ann|01|bob" "1";
  Server.put s "vote|ann|01|liz" "1";
  Server.put s "vote|ann|02|bob" "1";
  Alcotest.(check (option string)) "karma 3" (Some "3") (Server.get s "karma|ann");
  (* incremental *)
  Server.put s "vote|ann|02|jim" "1";
  Alcotest.(check (option string)) "karma 4" (Some "4") (Server.get s "karma|ann");
  Server.remove s "vote|ann|01|bob";
  Alcotest.(check (option string)) "karma 3 again" (Some "3") (Server.get s "karma|ann");
  (* empty group disappears *)
  Server.remove s "vote|ann|01|liz";
  Server.remove s "vote|ann|02|bob";
  Server.remove s "vote|ann|02|jim";
  Alcotest.(check (option string)) "karma gone" None (Server.get s "karma|ann");
  Server.validate s

let test_sum_aggregate () =
  let s = Server.create () in
  Server.add_join_exn s "total|<user> = sum amount|<user>|<id>";
  Server.put s "amount|ann|a" "10";
  Server.put s "amount|ann|b" "32";
  Alcotest.(check (option string)) "sum" (Some "42") (Server.get s "total|ann");
  Server.put s "amount|ann|a" "20";
  Alcotest.(check (option string)) "sum after update" (Some "52") (Server.get s "total|ann");
  Server.remove s "amount|ann|b";
  Alcotest.(check (option string)) "sum after remove" (Some "20") (Server.get s "total|ann")

let test_min_max_aggregate () =
  let s = Server.create () in
  Server.add_join_exn s "low|<user> = min score|<user>|<id>";
  Server.add_join_exn s "high|<user> = max score|<user>|<id>";
  Server.put s "score|ann|a" "5";
  Server.put s "score|ann|b" "3";
  Server.put s "score|ann|c" "9";
  Alcotest.(check (option string)) "min" (Some "3") (Server.get s "low|ann");
  Alcotest.(check (option string)) "max" (Some "9") (Server.get s "high|ann");
  (* removing the extremum forces a recompute *)
  Server.remove s "score|ann|b";
  Alcotest.(check (option string)) "min recomputed" (Some "5") (Server.get s "low|ann");
  Server.remove s "score|ann|c";
  Alcotest.(check (option string)) "max recomputed" (Some "5") (Server.get s "high|ann");
  Server.validate s

let test_aggregate_groups_isolated () =
  let s = Server.create () in
  Server.add_join_exn s karma_join;
  Server.put s "vote|ann|01|bob" "1";
  Server.put s "vote|bob|07|ann" "1";
  Server.put s "vote|bob|07|liz" "1";
  check_pairs "both groups"
    [ ("karma|ann", "1"); ("karma|bob", "2") ]
    (Server.scan s ~lo:"karma|" ~hi:"karma}")

(* ------------------------------------------------------------------ *)
(* Newp interleaved joins (§2.3, Fig 1)                                *)

let newp_joins =
  [
    "karma|<author> = count vote|<author>|<id>|<voter>";
    "rank|<author>|<id> = count vote|<author>|<id>|<voter>";
    "page|<author>|<id>|a = copy article|<author>|<id>";
    "page|<author>|<id>|r = copy rank|<author>|<id>";
    "page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>";
    "page|<author>|<id>|k|<cid>|<commenter> = check comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>";
  ]

let make_newp () =
  let s = Server.create () in
  List.iter (Server.add_join_exn s) newp_joins;
  s

let test_newp_page () =
  let s = make_newp () in
  Server.put s "article|bob|101" "A great article";
  Server.put s "comment|bob|101|c1|liz" "nice!";
  Server.put s "vote|bob|101|ann" "1";
  Server.put s "vote|bob|101|jim" "1";
  (* liz has karma from votes on her own article *)
  Server.put s "article|liz|201" "Liz writes";
  Server.put s "vote|liz|201|bob" "1";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_pairs "interleaved page"
    [
      ("page|bob|101|a", "A great article");
      ("page|bob|101|c|c1|liz", "nice!");
      ("page|bob|101|k|c1|liz", "1");
      ("page|bob|101|r", "2");
    ]
    page;
  (* karma updates propagate through the chained join *)
  Server.put s "vote|liz|201|jim" "1";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_bool "karma updated" true (List.mem ("page|bob|101|k|c1|liz", "2") page);
  (* a new vote on the article updates the rank copy *)
  Server.put s "vote|bob|101|liz" "1";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_bool "rank updated" true (List.mem ("page|bob|101|r", "3") page);
  Server.validate s

let test_newp_new_comment () =
  let s = make_newp () in
  Server.put s "article|bob|101" "art";
  ignore (Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|"));
  (* comment arrives after materialization: copy is eager, karma join is
     check-on-comment so it applies lazily *)
  Server.put s "article|liz|201" "liz art";
  Server.put s "vote|liz|201|ann" "1";
  Server.put s "comment|bob|101|c1|liz" "first!";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_pairs "comment and karma appear"
    [ ("page|bob|101|a", "art"); ("page|bob|101|c|c1|liz", "first!");
      ("page|bob|101|k|c1|liz", "1") ]
    page;
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Maintenance annotations (§3.4)                                      *)

let test_pull_join () =
  let s = Server.create () in
  Server.add_join_exn s "mirror|<x>|<y> = pull copy src|<x>|<y>";
  Server.put s "src|a|1" "v1";
  let before = Server.size s in
  check_pairs "pull computes" [ ("mirror|a|1", "v1") ] (Server.scan s ~lo:"mirror|" ~hi:"mirror}");
  check_int "nothing cached" before (Server.size s);
  Server.put s "src|a|2" "v2";
  check_pairs "pull always fresh"
    [ ("mirror|a|1", "v1"); ("mirror|a|2", "v2") ]
    (Server.scan s ~lo:"mirror|" ~hi:"mirror}")

let test_celebrity_joins () =
  (* §2.3: celebrities post under cp|, a push helper range ct| combines
     them in time order, and a pull join filters per user *)
  let s = make_twip () in
  Server.add_join_exn s "ct|<time>|<poster> = copy cp|<poster>|<time>";
  Server.add_join_exn s
    "t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>";
  subscribe s "ann" "bob";
  subscribe s "ann" "celeb";
  post s "bob" 100 "normal";
  Server.put s ("cp|celeb|" ^ tm 110) "celebrity tweet";
  check_pairs "merged timeline"
    [ ("t|ann|0100|bob", "normal"); ("t|ann|0110|celeb", "celebrity tweet") ]
    (timeline s "ann");
  (* the celebrity tweet is never materialized in t| *)
  check_bool "not cached" true (Server.get s "ct|0110|celeb" <> None);
  let stored = Server.scan s ~lo:"t|ann|0110|celeb" ~hi:"t|ann|0110|celeb\x00" in
  check_pairs "pull result served" [ ("t|ann|0110|celeb", "celebrity tweet") ] stored;
  Server.validate s

let test_snapshot_join () =
  let clock = ref 1000.0 in
  let config = Config.default () in
  config.Config.now <- (fun () -> !clock);
  let s = Server.create ~config () in
  Server.add_join_exn s "snap|<x> = snapshot 30 copy live|<x>";
  Server.put s "live|a" "v1";
  check_pairs "computed" [ ("snap|a", "v1") ] (Server.scan s ~lo:"snap|" ~hi:"snap}");
  (* within the snapshot window changes are not reflected *)
  Server.put s "live|a" "v2";
  clock := 1010.0;
  check_pairs "stale inside window" [ ("snap|a", "v1") ] (Server.scan s ~lo:"snap|" ~hi:"snap}");
  (* after expiry the snapshot is recomputed *)
  clock := 1031.0;
  check_pairs "fresh after expiry" [ ("snap|a", "v2") ] (Server.scan s ~lo:"snap|" ~hi:"snap}");
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Chained joins and installation checks                               *)

let test_chained_join_maintenance () =
  let s = Server.create () in
  Server.add_join_exn s "mid|<x>|<y> = copy base|<x>|<y>";
  Server.add_join_exn s "topp|<y>|<x> = copy mid|<x>|<y>";
  Server.put s "base|a|1" "v";
  check_pairs "chained" [ ("topp|1|a", "v") ] (Server.scan s ~lo:"topp|" ~hi:"topp}");
  (* updates ripple through both joins *)
  Server.put s "base|a|1" "w";
  check_pairs "ripple" [ ("topp|1|a", "w") ] (Server.scan s ~lo:"topp|" ~hi:"topp}");
  Server.put s "base|b|2" "x";
  check_pairs "new key ripples"
    [ ("topp|1|a", "w"); ("topp|2|b", "x") ]
    (Server.scan s ~lo:"topp|" ~hi:"topp}");
  Server.validate s

let test_cycle_rejected () =
  let s = Server.create () in
  Server.add_join_exn s "b|<x> = copy a|<x>";
  (match Server.add_join_text s "a|<x> = copy b|<x>" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "indirect cycle accepted");
  match Server.add_join_text s "c|<x> = copy c|<x>" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "direct cycle accepted"

(* ------------------------------------------------------------------ *)
(* Eviction (§2.5)                                                     *)

let test_eviction_and_recovery () =
  let config = Config.default () in
  config.Config.memory_limit <- Some 6_000;
  let s = Server.create ~config () in
  Server.add_join_exn s timeline_join;
  for u = 0 to 9 do
    let user = Printf.sprintf "u%02d" u in
    subscribe s user "bob"
  done;
  for i = 0 to 19 do
    post s "bob" i (Printf.sprintf "tweet %d" i)
  done;
  (* materialize many timelines to trip the limit *)
  for u = 0 to 9 do
    ignore (timeline s (Printf.sprintf "u%02d" u))
  done;
  check_bool "eviction happened" true
    (Server.counter s "evict.cover" > 0);
  (* evicted timelines recompute correctly on demand *)
  let tl = timeline s "u00" in
  check_int "complete timeline" 20 (List.length tl);
  check_pairs "first entry" [ ("t|u00|0000|bob", "tweet 0") ] [ List.hd tl ];
  Server.validate s

let test_eviction_join_interplay () =
  (* evicting a materialized join range must be invisible to readers:
     the next scan recomputes the range and returns identical pairs,
     matching a from-scratch oracle evaluation of the same base data *)
  let module Oracle = Pequod_oracle.Oracle in
  let config = Config.default () in
  config.Config.memory_limit <- Some 6_000;
  let s = Server.create ~config () in
  Server.add_join_exn s timeline_join;
  let oracle = Oracle.create () in
  (match Oracle.add_join_text oracle timeline_join with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let put k v =
    Server.put s k v;
    Oracle.put oracle k v
  in
  let users = List.init 10 (fun u -> Printf.sprintf "u%02d" u) in
  List.iter (fun u -> put (Printf.sprintf "s|%s|bob" u) "1") users;
  for i = 0 to 19 do
    put (Printf.sprintf "p|bob|%s" (tm i)) (Printf.sprintf "tweet %d" i)
  done;
  (* materializing every timeline overruns the limit and evicts ranges *)
  let before = List.map (fun u -> timeline s u) users in
  check_bool "eviction happened" true
    (Server.counter s "evict.cover" > 0);
  let recomputes = Server.counter s "exec.recompute_region" in
  let after = List.map (fun u -> timeline s u) users in
  List.iter2 (fun b a -> check_pairs "identical after eviction" b a) before after;
  check_bool "re-scan recomputed evicted ranges" true
    (Server.counter s "exec.recompute_region" > recomputes);
  List.iter
    (fun u ->
      let lo = Printf.sprintf "t|%s|" u in
      check_pairs "oracle agrees"
        (Oracle.scan oracle ~lo ~hi:(Strkey.prefix_upper lo))
        (timeline s u))
    users;
  Server.check_invariants s

(* ------------------------------------------------------------------ *)
(* Resolver / missing data (§3.3)                                      *)

let test_sync_resolver () =
  (* base posts live in a "database"; Pequod fetches ranges on demand *)
  let db = [ ("p|bob|0100", "hello"); ("p|bob|0150", "again"); ("p|liz|0120", "liz here") ] in
  let fetches = ref 0 in
  let s = make_twip () in
  Server.set_resolver s (fun ~table ~lo ~hi ->
      if table = "p" then begin
        incr fetches;
        Server.Resolved (List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) db)
      end
      else Server.Local);
  subscribe s "ann" "bob";
  check_pairs "timeline from db"
    [ ("t|ann|0100|bob", "hello"); ("t|ann|0150|bob", "again") ]
    (timeline s "ann");
  let f1 = !fetches in
  check_bool "fetched" true (f1 > 0);
  ignore (timeline s "ann");
  check_int "no refetch when present" f1 !fetches

(* keys of [table] resident in the engine, computed or not *)
let resident s table =
  let acc = ref [] in
  Server.iter_pairs s (fun k v ->
      if Pequod_store.Store.table_name_of k = table then acc := (k, v) :: !acc);
  List.sort compare !acc

let test_deferred_resolver () =
  (* asynchronous backing store: scan_result reports what to fetch; the
     host feeds it and retries. A region with a missing source is probed,
     never materialized: the miss pass leaves no output and no updater, so
     the feed fires nothing and the retry computes the region once *)
  let db = [ ("p|bob|0100", "hello"); ("p|liz|0120", "liz here"); ("p|liz|0090", "early") ] in
  let rows lo hi = List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) db in
  let pending = ref [] in
  let s = make_twip () in
  Server.set_resolver s (fun ~table ~lo ~hi ->
      if table <> "p" then Server.Local
      else if String.starts_with ~prefix:"p|bob|" lo then Server.Resolved (rows lo hi)
      else begin
        pending := (table, lo, hi) :: !pending;
        Server.Deferred
      end);
  subscribe s "ann" "bob";
  subscribe s "ann" "liz";
  let installed = Server.counter s "updater.installed" in
  let lo = "t|ann|" and hi = Strkey.prefix_upper "t|ann|" in
  (match Server.scan_result s ~lo ~hi with
  | `Missing [ (table, mlo, _) ] ->
    Alcotest.(check string) "missing table" "p" table;
    check_bool "liz is the miss" true (String.starts_with ~prefix:"p|liz|" mlo)
  | `Missing _ | `Ok _ -> Alcotest.fail "expected one missing range");
  check_pairs "no output before the feed" [] (resident s "t");
  check_int "no updater installed" installed (Server.counter s "updater.installed");
  check_int "region probed, not recomputed" 0 (Server.counter s "exec.recompute_region");
  check_int "probe deferred" 1 (Server.counter s "exec.probe_deferred");
  let runs = Server.counter s "updater.run" in
  (match !pending with
  | [ (table, flo, fhi) ] -> Server.feed_base s ~table ~lo:flo ~hi:fhi (rows flo fhi)
  | _ -> Alcotest.fail "resolver not consulted exactly once");
  check_int "feed fires no updater" runs (Server.counter s "updater.run");
  let blocking = make_twip () in
  List.iter (fun (k, v) -> Server.put blocking k v) (("s|ann|bob", "1") :: ("s|ann|liz", "1") :: db);
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs -> check_pairs "retry == blocking engine" (timeline blocking "ann") pairs
  | `Missing _ -> Alcotest.fail "should be resolved now");
  check_int "computed once" 1 (Server.counter s "exec.recompute_region");
  Server.validate s

let test_deferred_eager_checks () =
  (* eager checks under an asynchronous resolver: a new subscription's
     insert would join the poster's posts at once, but their range is
     missing and the resolver defers. The write must not raise: it logs
     the change against the timeline, the next scan reports the range,
     and after the feed the scan equals the blocking engine's *)
  let db = [ ("p|bob|0100", "hello"); ("p|liz|0120", "liz here"); ("p|liz|0090", "early") ] in
  let rows lo hi = List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) db in
  let config = Config.default () in
  config.Config.lazy_checks <- false;
  let pending = ref [] in
  let s = make_twip ~config () in
  Server.set_resolver s (fun ~table ~lo ~hi ->
      if table <> "p" then Server.Local
      else if String.starts_with ~prefix:"p|bob|" lo then Server.Resolved (rows lo hi)
      else begin
        pending := (table, lo, hi) :: !pending;
        Server.Deferred
      end);
  subscribe s "ann" "bob";
  let lo = "t|ann|" and hi = Strkey.prefix_upper "t|ann|" in
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs -> check_pairs "warm" [ ("t|ann|0100|bob", "hello") ] pairs
  | `Missing _ -> Alcotest.fail "bob resolves inline");
  (match subscribe s "ann" "liz" with
  | () -> ()
  | exception e -> Alcotest.failf "an eager check insert raised %s" (Printexc.to_string e));
  (match Server.scan_result s ~lo ~hi with
  | `Missing [ ("p", mlo, _) ] ->
    check_bool "liz is the miss" true (String.starts_with ~prefix:"p|liz|" mlo)
  | `Missing _ | `Ok _ -> Alcotest.fail "expected liz's range");
  (match List.sort_uniq compare !pending with
  | [ (table, flo, fhi) ] -> Server.feed_base s ~table ~lo:flo ~hi:fhi (rows flo fhi)
  | _ -> Alcotest.fail "expected one deferred range");
  let blocking = make_twip ~config () in
  List.iter (fun (k, v) -> Server.put blocking k v) (("s|ann|bob", "1") :: ("s|ann|liz", "1") :: db);
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs -> check_pairs "retry == blocking engine" (timeline blocking "ann") pairs
  | `Missing _ -> Alcotest.fail "should be resolved now");
  Server.validate s

let test_deferred_chained_probe () =
  (* the probe of a check join reaches the middle table's validate_range
     through ensure_source_ready; the middle region's own probe meets the
     missing base range, so neither join materializes anything *)
  let mid = "mid|<x>|<y> = copy base|<x>|<y>" in
  let top = "top|<u>|<y>|<x> = check s|<u>|<x> copy mid|<x>|<y>" in
  let base = [ ("base|a|1", "v1"); ("base|a|2", "v2"); ("base|b|1", "w") ] in
  let rows lo hi = List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) base in
  let s = Server.create () in
  Server.add_join_exn s mid;
  Server.add_join_exn s top;
  Server.set_resolver s (fun ~table ~lo:_ ~hi:_ ->
      if table = "base" then Server.Deferred else Server.Local);
  Server.put s "s|ann|a" "1";
  let lo = "top|ann|" and hi = Strkey.prefix_upper "top|ann|" in
  let missing =
    match Server.scan_result s ~lo ~hi with
    | `Missing [ (("base", _, _) as r) ] -> r
    | `Missing _ | `Ok _ -> Alcotest.fail "expected the base range of a"
  in
  check_pairs "no middle output" [] (resident s "mid");
  check_pairs "no top output" [] (resident s "top");
  check_int "nothing installed" 0 (Server.counter s "updater.installed");
  check_int "both regions deferred" 2 (Server.counter s "exec.probe_deferred");
  check_int "nothing recomputed" 0 (Server.counter s "exec.recompute_region");
  let table, flo, fhi = missing in
  Server.feed_base s ~table ~lo:flo ~hi:fhi (rows flo fhi);
  let blocking = Server.create () in
  Server.add_join_exn blocking mid;
  Server.add_join_exn blocking top;
  List.iter (fun (k, v) -> Server.put blocking k v) (("s|ann|a", "1") :: base);
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs -> check_pairs "retry == blocking engine" (Server.scan blocking ~lo ~hi) pairs
  | `Missing _ -> Alcotest.fail "should be resolved now");
  check_int "each region computed once" 2 (Server.counter s "exec.recompute_region");
  Server.validate s

let test_deferred_log_replay () =
  (* a pending log whose replay would read a missing range stays pending,
     log intact: the retry replays it instead of recomputing wholesale *)
  let db = [ ("p|bob|0100", "hello"); ("p|liz|0120", "liz here") ] in
  let rows lo hi = List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) db in
  let pending = ref [] in
  let s = make_twip () in
  Server.set_resolver s (fun ~table ~lo ~hi ->
      if table <> "p" then Server.Local
      else if String.starts_with ~prefix:"p|bob|" lo then Server.Resolved (rows lo hi)
      else begin
        pending := (table, lo, hi) :: !pending;
        Server.Deferred
      end);
  subscribe s "ann" "bob";
  let lo = "t|ann|" and hi = Strkey.prefix_upper "t|ann|" in
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs -> check_pairs "warm" [ ("t|ann|0100|bob", "hello") ] pairs
  | `Missing _ -> Alcotest.fail "bob resolves inline");
  (* lazy check: the new subscription logs against the valid timeline *)
  subscribe s "ann" "liz";
  let recomputes = Server.counter s "exec.recompute_region" in
  let replays = Server.counter s "exec.apply_log" in
  (match Server.scan_result s ~lo ~hi with
  | `Missing [ ("p", _, _) ] -> ()
  | `Missing _ | `Ok _ -> Alcotest.fail "expected liz's range");
  check_int "log not replayed" replays (Server.counter s "exec.apply_log");
  check_int "probe deferred" 1 (Server.counter s "exec.probe_deferred");
  check_pairs "old output kept" [ ("t|ann|0100|bob", "hello") ] (resident s "t");
  (match !pending with
  | [ (table, flo, fhi) ] -> Server.feed_base s ~table ~lo:flo ~hi:fhi (rows flo fhi)
  | _ -> Alcotest.fail "resolver not consulted exactly once");
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs ->
    check_pairs "replayed" [ ("t|ann|0100|bob", "hello"); ("t|ann|0120|liz", "liz here") ] pairs
  | `Missing _ -> Alcotest.fail "should be resolved now");
  check_int "log replayed once" (replays + 1) (Server.counter s "exec.apply_log");
  check_int "no wholesale recompute" recomputes (Server.counter s "exec.recompute_region");
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Ambiguity (§3)                                                      *)

let test_ambiguous_join_last_wins () =
  let s = Server.create () in
  (* dropping |poster: two same-time posts collide; Pequod stores one *)
  Server.add_join_exn s "t|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>";
  Server.put s "s|ann|bob" "1";
  Server.put s "s|ann|liz" "1";
  Server.put s "p|bob|0100" "from bob";
  Server.put s "p|liz|0100" "from liz";
  let tl = Server.scan s ~lo:"t|ann|" ~hi:(Strkey.prefix_upper "t|ann|") in
  check_int "single collapsed output" 1 (List.length tl);
  check_bool "one of the two" true
    (List.mem tl [ [ ("t|ann|0100", "from bob") ]; [ ("t|ann|0100", "from liz") ] ])

(* ------------------------------------------------------------------ *)
(* Golden property: incremental maintenance == from-scratch evaluation *)

module Smap = Map.Make (String)

(* Naive reference: evaluate the timeline join over current base data. *)
let reference_timeline base =
  Smap.fold
    (fun k _ acc ->
      match String.split_on_char '|' k with
      | [ "s"; user; poster ] ->
        Smap.fold
          (fun k' v acc ->
            match String.split_on_char '|' k' with
            | [ "p"; poster'; time ] when String.equal poster poster' ->
              Smap.add (Printf.sprintf "t|%s|%s|%s" user time poster) v acc
            | _ -> acc)
          base acc
      | _ -> acc)
    base Smap.empty

let prop_incremental_equals_scratch =
  let open QCheck2 in
  let users = [| "ann"; "bob"; "cal"; "dee" |] in
  let user = Gen.map (fun i -> users.(i)) (Gen.int_bound 3) in
  let time = Gen.map (fun n -> Strkey.encode_int ~width:4 n) (Gen.int_bound 30) in
  let op_gen =
    Gen.oneof
      [
        Gen.map2 (fun u p -> `Sub (u, p)) user user;
        Gen.map2 (fun u p -> `Unsub (u, p)) user user;
        Gen.map2 (fun p (t, i) -> `Post (p, t, i)) user (Gen.pair time (Gen.int_bound 99));
        Gen.map2 (fun p t -> `Unpost (p, t)) user time;
        Gen.map (fun u -> `Check u) user;
        Gen.map2 (fun u t -> `CheckFrom (u, t)) user time;
      ]
  in
  let print_op = function
    | `Sub (u, p) -> Printf.sprintf "Sub(%s,%s)" u p
    | `Unsub (u, p) -> Printf.sprintf "Unsub(%s,%s)" u p
    | `Post (p, t, i) -> Printf.sprintf "Post(%s,%s,%d)" p t i
    | `Unpost (p, t) -> Printf.sprintf "Unpost(%s,%s)" p t
    | `Check u -> Printf.sprintf "Check(%s)" u
    | `CheckFrom (u, t) -> Printf.sprintf "CheckFrom(%s,%s)" u t
  in
  Test.make ~name:"incremental timeline == from-scratch join" ~count:120
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (Gen.list_size (Gen.int_range 1 80) op_gen)
    (fun ops ->
      let s = make_twip () in
      let base = ref Smap.empty in
      let ok = ref true in
      let verify user from =
        let lo = Printf.sprintf "t|%s|%s" user from in
        let hi = Strkey.prefix_upper (Printf.sprintf "t|%s|" user) in
        let got = Server.scan s ~lo ~hi in
        let expect =
          reference_timeline !base |> Smap.bindings
          |> List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k)
        in
        if got <> expect then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | `Sub (u, p) ->
            Server.put s (Printf.sprintf "s|%s|%s" u p) "1";
            base := Smap.add (Printf.sprintf "s|%s|%s" u p) "1" !base
          | `Unsub (u, p) ->
            Server.remove s (Printf.sprintf "s|%s|%s" u p);
            base := Smap.remove (Printf.sprintf "s|%s|%s" u p) !base
          | `Post (p, t, i) ->
            let v = Printf.sprintf "tweet%d" i in
            Server.put s (Printf.sprintf "p|%s|%s" p t) v;
            base := Smap.add (Printf.sprintf "p|%s|%s" p t) v !base
          | `Unpost (p, t) ->
            Server.remove s (Printf.sprintf "p|%s|%s" p t);
            base := Smap.remove (Printf.sprintf "p|%s|%s" p t) !base
          | `Check u -> verify u (Strkey.encode_int ~width:4 0)
          | `CheckFrom (u, t) -> verify u t)
        ops;
      (* final full verification for every user *)
      Array.iter (fun u -> verify u (Strkey.encode_int ~width:4 0)) users;
      Server.validate s;
      !ok)

(* Same property for the count aggregate. *)
let prop_aggregate_equals_scratch =
  let open QCheck2 in
  let authors = [| "ann"; "bob" |] in
  let author = Gen.map (fun i -> authors.(i)) (Gen.int_bound 1) in
  let id = Gen.map (fun n -> Printf.sprintf "%02d" n) (Gen.int_bound 5) in
  let voter = Gen.map (fun i -> [| "x"; "y"; "z" |].(i)) (Gen.int_bound 2) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun (a, (i, v)) -> `Vote (a, i, v)) (Gen.pair author (Gen.pair id voter));
        Gen.map (fun (a, (i, v)) -> `Unvote (a, i, v)) (Gen.pair author (Gen.pair id voter));
        Gen.map (fun a -> `Check a) author;
      ]
  in
  Test.make ~name:"incremental karma == from-scratch count" ~count:120
    (Gen.list_size (Gen.int_range 1 60) op_gen)
    (fun ops ->
      let s = Server.create () in
      Server.add_join_exn s karma_join;
      let base = ref Smap.empty in
      let ok = ref true in
      let verify a =
        let got = Server.get s ("karma|" ^ a) in
        let n =
          Smap.fold
            (fun k _ acc ->
              if String.starts_with ~prefix:("vote|" ^ a ^ "|") k then acc + 1 else acc)
            !base 0
        in
        let expect = if n = 0 then None else Some (string_of_int n) in
        if got <> expect then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | `Vote (a, i, v) ->
            let k = Printf.sprintf "vote|%s|%s|%s" a i v in
            Server.put s k "1";
            base := Smap.add k "1" !base
          | `Unvote (a, i, v) ->
            let k = Printf.sprintf "vote|%s|%s|%s" a i v in
            Server.remove s k;
            base := Smap.remove k !base
          | `Check a -> verify a)
        ops;
      Array.iter verify authors;
      Server.validate s;
      !ok)

(* The optimization toggles must never change results, only performance. *)
let prop_config_equivalence =
  let open QCheck2 in
  let users = [| "ann"; "bob"; "cal" |] in
  let user = Gen.map (fun i -> users.(i)) (Gen.int_bound 2) in
  let time = Gen.map (fun n -> Strkey.encode_int ~width:4 n) (Gen.int_bound 20) in
  let op_gen =
    Gen.oneof
      [
        Gen.map2 (fun u p -> `Sub (u, p)) user user;
        Gen.map2 (fun u p -> `Unsub (u, p)) user user;
        Gen.map2 (fun p t -> `Post (p, t)) user time;
        Gen.map (fun u -> `Check u) user;
      ]
  in
  let print_op = function
    | `Sub (u, p) -> Printf.sprintf "Sub(%s,%s)" u p
    | `Unsub (u, p) -> Printf.sprintf "Unsub(%s,%s)" u p
    | `Post (p, t) -> Printf.sprintf "Post(%s,%s)" p t
    | `Check u -> Printf.sprintf "Check(%s)" u
  in
  Test.make ~name:"optimization flags do not change results" ~count:60
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (Gen.list_size (Gen.int_range 1 50) op_gen)
    (fun ops ->
      let mk_config variant =
        let c = Config.default () in
        (match variant with
        | 0 -> ()
        | 1 -> c.Config.output_hints <- false
        | 2 -> c.Config.value_sharing <- false
        | 3 -> c.Config.combine_updaters <- false
        | 4 -> c.Config.lazy_checks <- false
        | 5 -> c.Config.pending_log_limit <- 1 (* force escalation *)
        | _ -> c.Config.table_config <- (fun _ -> Some 2));
        c
      in
      let run config =
        let s = make_twip ~config () in
        let outputs = ref [] in
        List.iter
          (fun op ->
            match op with
            | `Sub (u, p) -> Server.put s (Printf.sprintf "s|%s|%s" u p) "1"
            | `Unsub (u, p) -> Server.remove s (Printf.sprintf "s|%s|%s" u p)
            | `Post (p, t) -> Server.put s (Printf.sprintf "p|%s|%s" p t) ("m" ^ t)
            | `Check u -> outputs := timeline s u :: !outputs)
          ops;
        Array.iter (fun u -> outputs := timeline s u :: !outputs) users;
        Server.validate s;
        !outputs
      in
      let baseline = run (mk_config 0) in
      List.for_all (fun v -> run (mk_config v) = baseline) [ 1; 2; 3; 4; 5; 6 ])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "join-engine"
    [
      ( "timeline",
        [
          Alcotest.test_case "basic" `Quick test_timeline_basic;
          Alcotest.test_case "time bound" `Quick test_timeline_time_bound;
          Alcotest.test_case "incremental post" `Quick test_incremental_post;
          Alcotest.test_case "update and remove" `Quick test_post_update_and_remove;
          Alcotest.test_case "multiple followers" `Quick test_multiple_followers;
          Alcotest.test_case "subscription insert" `Quick test_subscription_insert;
          Alcotest.test_case "subscription remove" `Quick test_subscription_remove;
          Alcotest.test_case "get on output" `Quick test_get_on_join_output;
          Alcotest.test_case "scan includes base" `Quick test_scan_includes_base_data;
          Alcotest.test_case "cross-user scan" `Quick test_cross_user_scan;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "count" `Quick test_count_aggregate;
          Alcotest.test_case "sum" `Quick test_sum_aggregate;
          Alcotest.test_case "min/max" `Quick test_min_max_aggregate;
          Alcotest.test_case "groups isolated" `Quick test_aggregate_groups_isolated;
        ] );
      ( "newp",
        [
          Alcotest.test_case "interleaved page" `Quick test_newp_page;
          Alcotest.test_case "new comment" `Quick test_newp_new_comment;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "pull" `Quick test_pull_join;
          Alcotest.test_case "celebrity" `Quick test_celebrity_joins;
          Alcotest.test_case "snapshot" `Quick test_snapshot_join;
        ] );
      ( "composition",
        [
          Alcotest.test_case "chained maintenance" `Quick test_chained_join_maintenance;
          Alcotest.test_case "cycles rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "ambiguous collapses" `Quick test_ambiguous_join_last_wins;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "evict and recover" `Quick test_eviction_and_recovery;
          Alcotest.test_case "evict x join interplay" `Quick test_eviction_join_interplay;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "sync" `Quick test_sync_resolver;
          Alcotest.test_case "deferred" `Quick test_deferred_resolver;
          Alcotest.test_case "deferred eager checks" `Quick test_deferred_eager_checks;
          Alcotest.test_case "deferred chained probe" `Quick test_deferred_chained_probe;
          Alcotest.test_case "deferred log replay" `Quick test_deferred_log_replay;
        ] );
      ( "properties",
        qsuite
          [
            prop_incremental_equals_scratch;
            prop_aggregate_equals_scratch;
            prop_config_equivalence;
          ] );
    ]
