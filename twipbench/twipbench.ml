(* The repository benchmark: open-loop Twip traffic against a live
   home + compute cluster. One run takes a workload name and a seed,
   builds its inputs from the seed, sets the cluster up (three times,
   for a steady set-up figure), measures, checks the cluster's
   timelines against its own model, and prints one JSON line last on
   stdout. With --trace 1 it instead reports the per-layer metrics; see
   README.md for both lists and what each should move. *)

module Workload = Pequod_apps.Workload
module Social_graph = Pequod_apps.Social_graph
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client

(* Progress goes to stderr; a closed stderr must not end a run before
   it has stopped its servers. *)
let log fmt =
  Printf.ksprintf
    (fun s -> try prerr_string ("twipbench: " ^ s ^ "\n"); flush stderr with Sys_error _ -> ())
    fmt
let now_s = Clock.now_s

let sleep_until t =
  let d = t -. now_s () in
  if d > 0.0 then Unix.sleepf d

(* The first heartbeat of [cluster]'s compute at or after [t]. *)
let next_beat (cluster : Cluster.t) t =
  let k = Float.ceil ((t -. cluster.beat0) /. Cluster.heartbeat_s) in
  cluster.beat0 +. (k *. Cluster.heartbeat_s)

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let tiny = ref false
let server_exe = ref "_build/default/bin/pequod_server.exe"
let work_dir = ref ".twipbench"
let fault_model = ref false

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME twip-warm, twip-cold or twip-write");
    ("--seed", Arg.Set_int seed, "N seed of the traffic (the data set is fixed per workload)");
    ("--seconds", Arg.Set_int seconds, "S length of the measured traffic");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ("--tiny", Arg.Set tiny, " smoke sizes");
    ("--server-exe", Arg.Set_string server_exe, "PATH pequod_server executable");
    ("--work-dir", Arg.Set_string work_dir, "DIR scratch for data dirs and trace files");
    ("--fault-model", Arg.Set fault_model,
      " add a post the cluster never saw to the model (the smoke test's proof that the \
       correctness gate fails a run)") ]

(* ------------------------------------------------------------------ *)
(* Run phases                                                          *)

(* (due time, latency ms) of every answered op of [cls] classes. *)
let latencies ops ~cls =
  List.filter_map
    (fun (op : Gen.op) ->
      if List.mem op.cls cls && op.status = Gen.Ok then
        Some (op.due, float_of_int (op.fin - op.due) /. 1e6)
      else None)
    ops

let pooled samples q =
  let v = Stat.vec () in
  List.iter (fun (_, x) -> Stat.push v x) samples;
  Stat.quantile v q

(* The fixed-rate window is cut by due time into equal slices; a
   latency figure is the median over slices of that slice's quantile,
   so one stall moves one slice and not the figure. Each slice keeps
   about ten samples beyond the quantile (at most [max_slices] slices;
   one, a pooled quantile, when the window has fewer). *)
let max_slices = 10

let sliced ~t0 ~len samples q =
  let n = List.length samples in
  let slices =
    max 1 (min max_slices (int_of_float (float_of_int n *. (1.0 -. q) /. 10.0)))
  in
  let vs = Array.init slices (fun _ -> Stat.vec ()) in
  List.iter
    (fun (due, x) -> Stat.push vs.(max 0 (min (slices - 1) ((due - t0) * slices / len))) x)
    samples;
  Array.to_list vs
  |> List.filter_map (fun v -> if Stat.length v = 0 then None else Some (Stat.quantile v q))
  |> Stat.median_of_list

(* Mean lateness of the last fifth of [ops] minus that of the first
   fifth, ms: a generator that keeps falling behind shows a growth. *)
let lateness_growth_ms ops =
  let a = Array.of_list (List.map (fun (op : Gen.op) -> float_of_int (op.pick - op.due) /. 1e6) ops) in
  let n = Array.length a in
  let k = max 1 (n / 5) in
  if n < 10 then 0.0
  else begin
    let mean lo = Array.fold_left ( +. ) 0.0 (Array.sub a lo k) /. float_of_int k in
    mean (n - k) -. mean 0
  end

let check_p99_limit_ms = 20.0

(* Of --seconds, a run spends [settle_s] on untimed traffic; the
   fixed-rate window takes the rest. A traced run then climbs the
   ladder, for about 9 s more. *)
let settle_s = 2
let lateness_growth_limit_ms = 2.0

let ladder_steps = 6
let ladder_step_s = 1.0
let ladder_retries = 2

(* Check p99 of ladder step [step], taken like the window's figures (a
   median over slices; failed checks count as misses, so as infinite
   latency), and whether the step passes: p99 within the limit, without
   a growing generator lateness. *)
let judge_step g ~step =
  let ops = List.filter (fun (op : Gen.op) -> op.step = step) (Gen.ops g) in
  let checks =
    List.filter_map
      (fun (op : Gen.op) ->
        if op.cls <> 1 then None
        else
          Some
            ( op.due,
              if op.status = Gen.Ok then float_of_int (op.fin - op.due) /. 1e6 else infinity ))
      ops
  in
  let t0 = match ops with op :: _ -> op.Gen.due | [] -> 0 in
  let p99 = sliced ~t0 ~len:(int_of_float (ladder_step_s *. 1e9)) checks 0.99 in
  let growth = lateness_growth_ms ops in
  log "  step %d: %d ops, check p99 %.2f ms, lateness growth %.2f ms" step (List.length ops)
    p99 growth;
  (p99, checks <> [] && p99 <= check_p99_limit_ms && growth <= lateness_growth_limit_ms)

(* Wait, if need be, so that [seconds] of traffic starting now keep
   clear of the compute's heartbeats. *)
let clear_of_beats cluster ~seconds =
  let beat = next_beat cluster (now_s () -. 0.3) in
  if now_s () +. seconds > beat -. 0.3 then sleep_until (beat +. 0.5)


(* A failed step whose p99 is at most this is marginal and is rerun; a
   higher one is an overload, which a rerun would only repeat. *)
let marginal_p99_ms = 3.0 *. check_p99_limit_ms

(** The step ladder above the nominal rate: climb by 2x until a step
    fails, then bisect (geometrically) between the last pass and the
    first failure; a failed step is run once more (at most
    [ladder_retries] times a run) before it counts, so one hiccup of a
    shared host does not end the climb. Steps keep clear of heartbeats,
    which would fail any step whatever its rate. Returns the rate at
    which the check p99 reaches the limit, interpolated (log-log)
    between the highest passing and the lowest failing step. *)
let ladder g cluster ~nominal ~nominal_p99 =
  let pass = ref (if nominal_p99 <= check_p99_limit_ms then Some (nominal, nominal_p99) else None) in
  let fail = ref (if !pass = None then Some (nominal, nominal_p99) else None) in
  let retries = ref 0 and step = ref 0 in
  for _ = 1 to ladder_steps do
    let rate =
      match (!pass, !fail) with
      | Some (lo, _), None -> lo *. 2.0
      | None, Some (hi, _) -> hi /. 2.0
      | Some (lo, _), Some (hi, _) -> sqrt (lo *. hi)
      | None, None -> nominal
    in
    let run () =
      clear_of_beats cluster ~seconds:(ladder_step_s +. 0.5);
      ignore (Gen.run_phase g ~rate ~seconds:ladder_step_s ~step:!step ~trace_slice_ns:0);
      ignore (Gen.drain g ~seconds:5.0);
      log "ladder step %d at %.0f ops/s" !step rate;
      let r = judge_step g ~step:!step in
      (* after an overload, let the servers settle before the next step *)
      if not (snd r) then Unix.sleepf 0.5;
      incr step;
      r
    in
    let p99, ok =
      match run () with
      | p99, false when p99 <= marginal_p99_ms && !retries < ladder_retries ->
        incr retries;
        run ()
      | r -> r
    in
    if ok then pass := Some (rate, p99) else fail := Some (rate, p99)
  done;
  match (!pass, !fail) with
  | Some (lo, p_lo), Some (hi, p_hi) when p_hi > p_lo ->
    let ln = Float.log in
    let f = (ln check_p99_limit_ms -. ln p_lo) /. (ln p_hi -. ln p_lo) in
    Float.exp (ln lo +. (Float.min 1.0 (Float.max 0.0 f) *. (ln hi -. ln lo)))
  | Some (lo, _), _ -> lo
  | None, _ -> 0.0

(** Scan a seeded sample of users' whole timelines on the compute and
    compare each with the model. A mismatch is retried for a few
    seconds (a push may still be in flight); one that persists fails
    the run. *)
let correctness_gate (cluster : Cluster.t) model ~nusers ~sample =
  let rng = Twipops.rng_gate !seed in
  let users = List.init sample (fun _ -> Rng.int rng nusers) in
  if !fault_model then begin
    let u = List.hd users in
    Social_graph.iter_following model.Twipops.graph u (fun p ->
        model.Twipops.posts.(p) <- 999_999 :: model.Twipops.posts.(p))
  end;
  let c = Cluster.client cluster.Cluster.compute_addr in
  let deadline = now_s () +. 5.0 in
  let rec check u =
    let got =
      match
        Net_client.call ~timeout:30.0 c
          (Message.Scan { lo = Twipops.timeline_lo u; hi = Twipops.timeline_hi u })
      with
      | Message.Pairs pairs -> Twipops.check_timeline model u pairs
      | Message.Error msg -> Error ("scan failed: " ^ msg)
      | _ -> Error "scan: unexpected response"
    in
    match got with
    | Ok n -> Ok n
    | Error _ when now_s () < deadline ->
      Unix.sleepf 0.05;
      check u
    | Error msg -> Error (Printf.sprintf "timeline of %s: %s" (Twipops.name u) msg)
  in
  let result =
    List.fold_left
      (fun acc u -> match acc with Error _ -> acc | Ok n -> Result.map (( + ) n) (check u))
      (Ok 0) users
  in
  Net_client.close c;
  result

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else begin
      log "non-finite metric value; reported as -1";
      "-1"
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit)
          metrics))

(* ------------------------------------------------------------------ *)
(* Registry deltas                                                     *)

type sample = {
  home : (string * Obs.value) list;
  compute : (string * Obs.value) list;
  home_cpu : float;
  compute_cpu : float;
  gen_cpu : float;
}

let sample (cluster : Cluster.t) =
  { home = Cluster.stats_full cluster.home_addr;
    compute = Cluster.stats_full cluster.compute_addr;
    home_cpu = Cluster.cpu_s (string_of_int cluster.home_pid);
    compute_cpu = Cluster.cpu_s (string_of_int cluster.compute_pid);
    gen_cpu = Cluster.cpu_s "self" }

let per_layer ~(w : Workloads.t) ~before ~after ~rss ~(g : Gen.t) ~window
    ~replay_spans ~check_traced ~check_untraced ~tails =
  let d side name =
    float_of_int (Cluster.counter (side after) name - Cluster.counter (side before) name)
  in
  let dsum side name =
    float_of_int (Cluster.hist_sum (side after) name - Cluster.hist_sum (side before) name)
  in
  let both name = d (fun s -> s.home) name +. d (fun s -> s.compute) name in
  let h s = s.home and c s = s.compute in
  let hist_mean side name = Stat.ratio (dsum side name) (d side name) in
  let count cls =
    float_of_int (List.length (List.filter (fun (op : Gen.op) -> List.mem op.cls cls) window))
  in
  let ops = float_of_int (List.length window) in
  let reads = count [ 0; 1; 4 ] and writes = count [ 2; 3 ] in
  let attempted = List.length window in
  let failed = List.length (List.filter (fun (op : Gen.op) -> op.status <> Gen.Ok) window) in
  let traced = List.filter (fun (op : Gen.op) -> op.traced && op.status = Gen.Ok) window in
  let vec f l =
    let v = Stat.vec () in
    List.iter (fun x -> Stat.push v (f x)) l;
    v
  in
  let net_wait = vec (fun (op : Gen.op) -> float_of_int (op.arrive - op.enc) /. 1e3) traced in
  let encode = vec (fun (op : Gen.op) -> float_of_int (op.enc - op.enc0) /. 1e3) traced in
  let decode = vec (fun (op : Gen.op) -> float_of_int op.decode_ns /. 1e3) traced in
  let lateness = vec (fun (op : Gen.op) -> float_of_int (op.pick - op.due) /. 1e6) window in
  let answered = List.filter (fun (op : Gen.op) -> op.status = Gen.Ok) window in
  let mean_of f l = Stat.mean (vec f l) in
  let self = Spans.self_table replay_spans in
  let replay name q =
    match List.find_opt (fun (n, _, _, _, _) -> String.equal n name) self with
    | Some (_, _, _, p50, p99) -> if q = 0.5 then p50 else p99
    | None -> 0.0
  in
  let end_gauge name = float_of_int (Cluster.counter after.home name + Cluster.counter after.compute name) in
  let peer_msgs = d h "peer.fetch.in" +. d h "peer.notify.out" in
  let kops = ops /. 1000.0 in
  tails
  @ [ ("gen.lateness_ms_p99", Stat.quantile lateness 0.99, "ms");
    ("gen.lateness_growth_ms", lateness_growth_ms window, "ms");
    ("gen.cpu_s", after.gen_cpu -. before.gen_cpu, "s");
    ("net.wait_us_p50", Stat.quantile net_wait 0.5, "us");
    ("net.wait_us_p99", Stat.quantile net_wait 0.99, "us");
    ("net.fetch_per_read", Stat.ratio (d h "peer.fetch.in") reads, "ratio");
    ("net.scan_parked_per_read", Stat.ratio (d c "scan.parked") reads, "ratio");
    ("net.fetch_coalesced_ratio", Stat.ratio (d c "fetch.coalesced") (d c "resolver.deferred"), "ratio");
    ("net.fetch_wait_us_mean", hist_mean c "resolver.fetch.wait_ns" /. 1e3, "us");
    ("net.rpcs_per_op", Stat.ratio (both "net.rpcs") ops, "ratio");
    ("net.bytes_per_op", Stat.ratio (both "net.bytes_in" +. both "net.bytes_out") ops, "B");
    ("net.subscription_share", Stat.ratio peer_msgs (peer_msgs +. ops), "ratio");
    ("net.notify_out_per_write", Stat.ratio (d h "peer.notify.out") writes, "ratio");
    ("net.notify_in_per_write", Stat.ratio (d c "peer.notify.in") writes, "ratio");
    ("net.client_retries", both "net.client.retries", "count");
    ("net.client_timeouts", both "net.client.timeouts" +. float_of_int g.Gen.timeouts, "count");
    ("fail_rate", Stat.ratio (float_of_int failed) (float_of_int attempted), "ratio");
    ("proto.encode_us_p50", Stat.quantile encode 0.5, "us");
    ("proto.decode_us_p50", Stat.quantile decode 0.5, "us");
    ("proto.decode_us_p99", Stat.quantile decode 0.99, "us");
    ("proto.req_bytes_mean", mean_of (fun (op : Gen.op) -> float_of_int op.req_bytes) window, "B");
    ("proto.resp_bytes_mean", mean_of (fun (op : Gen.op) -> float_of_int op.resp_bytes) answered, "B");
    ("core.scan_us_mean", hist_mean c "op.scan.ns" /. 1e3, "us");
    ("core.scan_fast_ratio", Stat.ratio (d c "op.scan_fast") (d c "op.scan"), "ratio");
    ("core.pairs_per_read", Stat.ratio (dsum c "op.scan.pairs") reads, "ratio");
    ("core.recompute_per_read", Stat.ratio (d c "exec.recompute_region") reads, "ratio");
    ("core.apply_log_per_read", Stat.ratio (d c "exec.apply_log") reads, "ratio");
    ("core.updater_runs_per_write", Stat.ratio (both "updater.run") writes, "ratio");
    ("core.eager_per_write",
      Stat.ratio (both "updater.eager_value" +. both "updater.eager_check") writes, "ratio");
    ("core.replay.scan_us_p50", replay "core.replay.scan" 0.5, "us");
    ("core.replay.scan_us_p99", replay "core.replay.scan" 0.99, "us");
    ("core.replay.feed_base_us_p50", replay "core.replay.feed_base" 0.5, "us");
    ("core.replay.home_fetch_us_p50", replay "core.replay.home_fetch" 0.5, "us");
    ("core.replay.notify_apply_us_p50", replay "core.replay.notify_apply" 0.5, "us");
    ("core.replay.home_put_us_p50", replay "core.replay.home_put" 0.5, "us");
    ("store.steps_per_op", Stat.ratio (both "table.steps") ops, "ratio");
    ("store.lookups_per_op", Stat.ratio (both "table.lookups") ops, "ratio");
    ("store.inserts_per_op", Stat.ratio (both "table.inserts") ops, "ratio");
    ("store.bytes_per_pair", Stat.ratio (end_gauge "memory.bytes") (end_gauge "store.size"), "B");
    ("store.pairs", end_gauge "store.size", "count");
    ("persist.wal_appends_per_write", Stat.ratio (d h "wal.appends") writes, "ratio");
    ("persist.wal_bytes_per_write", Stat.ratio (dsum h "wal.append.bytes") writes, "B");
    ("persist.sync_us_mean", hist_mean h "wal.sync.ns" /. 1e3, "us");
    ("persist.replay.append_us_p50", (if w.durable then replay "persist.replay.append" 0.5 else 0.0), "us");
    ("proc.home.cpu_ms_per_kop", Stat.ratio ((after.home_cpu -. before.home_cpu) *. 1e3) kops, "ms");
    ("proc.compute.cpu_ms_per_kop",
      Stat.ratio ((after.compute_cpu -. before.compute_cpu) *. 1e3) kops, "ms");
    ("proc.home.rss_mb", fst rss, "MiB");
    ("proc.compute.rss_mb", snd rss, "MiB");
    ("trace.overhead_pct", (Stat.ratio check_traced check_untraced -. 1.0) *. 100.0, "%") ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let print_self_table name spans =
  log "self time per span (%s):" name;
  log "  %-32s %8s %10s %10s %10s" "span" "count" "total ms" "p50 us" "p99 us";
  List.iter
    (fun (n, count, total, p50, p99) ->
      log "  %-32s %8d %10.1f %10.2f %10.2f" n count total p50 p99)
    (Spans.self_table spans)

(* Set the cluster up [n] times; keep the last. Returns it and each
   set-up's duration. *)
let set_up (w : Workloads.t) ~host ~graph ~active ~n =
  let rec go i times =
    let data_dir =
      if w.durable then
        Some (Filename.concat !work_dir (Printf.sprintf "data-%d-%d" (Unix.getpid ()) i))
      else None
    in
    Option.iter Cluster.rm_rf data_dir;
    let t0 = now_s () in
    let cluster = Cluster.start ~host ~server_exe:!server_exe ~nusers:w.users ?data_dir () in
    match
      Cluster.preload cluster w ~graph;
      if w.warm then Cluster.warm_up cluster active
    with
    | () ->
      let dt = now_s () -. t0 in
      log "set-up %d: %.3f s" i dt;
      if i < n then begin
        Cluster.shutdown cluster;
        go (i + 1) (dt :: times)
      end
      else (cluster, dt :: times)
    | exception e ->
      Cluster.shutdown cluster;
      raise e
  in
  go 1 []

(* The traced run's report: spans, the layer replay, registry deltas. *)
let traced_report (w : Workloads.t) ~graph ~(g : Gen.t) ~window ~before ~after ~rss ~skip
    ~issued ~digest:window_digest ~correct ~tails =
  let nops = issued - skip in
  let replay_dir = Filename.concat !work_dir (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  Cluster.rm_rf replay_dir;
  let t0 = now_s () in
  let digest, replay_spans =
    Replay.run w ~seed:!seed ~graph ~dir:replay_dir ~skip ~nops ~first_op_id:g.nops
  in
  Cluster.rm_rf replay_dir;
  log "layer replay: %d ops in %.2f s" nops (now_s () -. t0);
  if digest <> window_digest then begin
    log "CORRECTNESS MISMATCH: the replay's op stream differs from the live run's";
    correct := false
  end;
  print_self_table "live ops" g.spans;
  print_self_table "layer replay" replay_spans;
  let cover = Spans.coverage g.spans ~root:"op" in
  log "children of op cover %.4f of its duration" cover;
  if cover < 0.999 then begin
    log "CORRECTNESS MISMATCH: op spans are not covered by their children";
    correct := false
  end;
  log "children of replay.op cover %.4f of its duration"
    (Spans.coverage replay_spans ~root:"replay.op");
  let trace_path = Filename.concat !work_dir (Printf.sprintf "trace-%s-%d.jsonl" w.name !seed) in
  Spans.write [ g.spans; replay_spans ] trace_path;
  log "wrote %s" trace_path;
  let checks_p50 traced =
    pooled (latencies (List.filter (fun (op : Gen.op) -> op.traced = traced) window) ~cls:[ 1 ]) 0.5
  in
  per_layer ~w ~before ~after ~rss ~g ~window ~replay_spans ~check_traced:(checks_p50 true)
    ~check_untraced:(checks_p50 false) ~tails

let run (w : Workloads.t) ~host =
  let traced = !trace = 1 in
  mkdir_p !work_dir;
  let graph = Twipops.graph w in
  let stream = Twipops.stream w ~seed:!seed ~graph in
  let active = stream.Workload.st_active in
  let cluster, setup_times = set_up w ~host ~graph ~active ~n:(if traced then 1 else 3) in
  Fun.protect ~finally:(fun () -> Cluster.shutdown cluster) @@ fun () ->
  (* the client state and the model start where the set-up left them *)
  let client = Twipops.client ~nusers:w.users ~clock:(w.preload_posts - 1) in
  let warm = Array.make w.users false in
  if w.warm then
    Array.iter
      (fun u ->
        ignore (Twipops.request client (Workload.Login u));
        warm.(u) <- true)
      active;
  let model = Twipops.model ~graph ~preload_posters:(Twipops.preload_posters w ~graph) in
  let g =
    Gen.create ~home_addr:cluster.home_addr ~compute_addr:cluster.compute_addr ~graph ~stream
      ~client ~model ~warm ~spans:(Spans.create ())
  in
  Fun.protect ~finally:(fun () -> Gen.close g) @@ fun () ->
  let fixed_s = float_of_int (!seconds - settle_s) in
  (* untimed traffic at the nominal rate first: the servers' heaps and
     the generator reach their running state before the window opens *)
  ignore (Gen.run_phase g ~rate:w.rate ~seconds:(float_of_int settle_s) ~step:(-2) ~trace_slice_ns:0);
  ignore (Gen.drain g ~seconds:10.0);
  let settled = g.issued in
  (* a heartbeat must not sit on an edge of the fixed-rate window: a
     window of whole heartbeat periods (30 s at --seconds 32) then holds
     exactly its long-run share of beats *)
  let beat = next_beat cluster (now_s () -. 0.3) in
  if now_s () > beat -. 0.3 then sleep_until (beat +. 0.3);
  let before = if traced then Some (sample cluster) else None in
  g.probe_since <- Some (Clock.now_ns ());
  ignore
    (Gen.run_phase g ~rate:w.rate ~seconds:fixed_s ~step:(-1)
       ~trace_slice_ns:(if traced then 500_000_000 else 0));
  g.probe_since <- None;
  ignore (Gen.drain g ~seconds:10.0);
  let after = if traced then Some (sample cluster) else None in
  let window_issued = g.issued and window_digest = g.digest in
  let window = List.filter (fun (op : Gen.op) -> op.step = -1) (Gen.ops g) in
  let lateness =
    Stat.quantile
      (let v = Stat.vec () in
       List.iter (fun (op : Gen.op) -> Stat.push v (float_of_int (op.pick - op.due) /. 1e6)) window;
       v)
      0.99
  in
  let growth = lateness_growth_ms (List.filter (fun (op : Gen.op) -> op.cls < 4) window) in
  log "generator lateness: p99 %.3f ms, growth %.3f ms" lateness growth;
  if growth > lateness_growth_limit_ms then
    log "WARNING: generator lateness grew during the fixed-rate window; this run's latencies are not valid";
  let window_t0 = match window with op :: _ -> op.Gen.due | [] -> 0 in
  let q samples p = sliced ~t0:window_t0 ~len:(int_of_float (fixed_s *. 1e9)) samples p in
  let checks = latencies window ~cls:[ 1 ] in
  let max_qps = if traced then ladder g cluster ~nominal:w.rate ~nominal_p99:(q checks 0.99) else 0.0 in
  let gate = correctness_gate cluster model ~nusers:w.users ~sample:(if !tiny then 50 else 200) in
  let all = Gen.ops g in
  let failed = List.length (List.filter (fun (op : Gen.op) -> op.status <> Gen.Ok) all) in
  List.iter (fun e -> log "failure: %s" e) (List.rev g.errors);
  let correct = ref (Result.is_ok gate) in
  (match gate with
  | Ok n -> log "correctness gate: timelines match the model (%d entries)" n
  | Error msg -> log "CORRECTNESS MISMATCH: %s" msg);
  let rss =
    ( Cluster.peak_rss_mb (string_of_int cluster.home_pid),
      Cluster.peak_rss_mb (string_of_int cluster.compute_pid) )
  in
  if g.fresh = [] then begin
    log "CORRECTNESS MISMATCH: no probed post ever reached a follower's timeline";
    correct := false
  end;
  let writes = latencies window ~cls:[ 2; 3 ] and logins = latencies window ~cls:[ 0 ] in
  log "samples: %d checks, %d logins, %d writes, %d freshness" (List.length checks)
    (List.length logins) (List.length writes) (List.length g.fresh);
  (* tail latencies and the tail-judged max_qps spread too widely
     between runs on a small shared host to carry a regression bound;
     the traced run reports them *)
  let tails =
    [ ("check_p99_ms", q checks 0.99, "ms"); ("login_p99_ms", q logins 0.99, "ms");
      ("write_p99_ms", q writes 0.99, "ms"); ("fresh_p90_ms", q g.fresh 0.9, "ms");
      ("max_qps", max_qps, "ops/s") ]
  in
  let metrics =
    match (before, after) with
    | Some before, Some after ->
      (* the replay needs the memory the cluster holds *)
      Cluster.shutdown cluster;
      traced_report w ~graph ~g ~window ~before ~after ~rss ~skip:settled ~issued:window_issued
        ~digest:window_digest ~correct ~tails
    | _ ->
      List.iter (fun (n, v, u) -> log "  %-34s %14.4f %s (traced runs report it)" n v u) tails;
      [ ("setup_s", Stat.median_of_list setup_times, "s"); ("check_p50_ms", q checks 0.5, "ms");
        ("login_p50_ms", q logins 0.5, "ms"); ("write_p50_ms", q writes 0.5, "ms");
        ("fresh_p50_ms", q g.fresh 0.5, "ms"); ("rss_mb", fst rss +. snd rss, "MiB") ]
  in
  List.iter (fun (n, v, u) -> log "  %-34s %14.4f %s" n v u) metrics;
  json_result ~correct:!correct ~attempted:(List.length all) ~failed metrics;
  if !correct then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a signal unwinds through the Fun.protect handlers, which stop the
     servers *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigterm; Sys.sigint ];
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "twipbench [options]";
  match Workloads.find ~tiny:!tiny !workload with
  | None ->
    log "unknown workload %S (twip-warm, twip-cold, twip-write)" !workload;
    exit 2
  | Some w ->
    if !trace <> 0 && !trace <> 1 then begin
      log "--trace takes 0 or 1";
      exit 2
    end;
    if !seconds < settle_s + 2 then begin
      log "--seconds must leave the fixed-rate window 2 s beyond %d s of settling" settle_s;
      exit 2
    end;
    let host = Host.start () in
    let stop () =
      Cluster.shutdown_all ();
      Host.stop host
    in
    exit (Fun.protect ~finally:stop (fun () -> run w ~host))
