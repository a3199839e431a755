(** The live cluster under test: one home and one compute
    [pequod_server], started with the arguments {!Pequod_load_lib.Spawn}
    gives its homes and computes, plus the setup traffic (preload,
    warm-up), the servers' [Stats_full] registries and the OS view of
    each process. *)

module Spawn = Pequod_load_lib.Spawn
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client

type t = {
  home_addr : string;
  compute_addr : string;
  home_pid : int;
  compute_pid : int;
  pipes : Unix.file_descr list;
  data_dir : string option;
  beat0 : float;
      (** when the compute's subscription heartbeat clock started
          (monotonic seconds): its beats fall at [beat0 + k * heartbeat_s] *)
  mutable stopped : bool;
}

(** The compute's [--sub-check-every], as {!Spawn.start} sets it. Each
    beat is a blocking [Sub_check] call whose cost grows with the
    compute's subscriptions; see README.md for how the runs place
    their windows around it. *)
let heartbeat_s = 10.0


let client addr =
  match String.rindex_opt addr ':' with
  | Some i ->
    Net_client.create ~host:(String.sub addr 0 i)
      ~port:(int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)))
      ()
  | None -> invalid_arg ("bad server address " ^ addr)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Every cluster started and not yet shut down. *)
let started : t list ref = ref []

let shutdown t =
  if not t.stopped then begin
  started := List.filter (fun c -> c != t) !started;
  t.stopped <- true;
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    [ t.compute_pid; t.home_pid ];
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.pipes;
  Option.iter rm_rf t.data_dir
  end

(** Fork the home, then the compute with [--partition] routes of both
    base tables at the home, both on the servers' CPU (see {!Host}).
    [data_dir] gives the home a WAL there, written with [--sync never]:
    README.md says why not the default flush policy. *)
let start ~host ~server_exe ~nusers ?data_dir () =
  let kill pid out =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Unix.close out
  in
  let boot args =
    let pid, out = Host.on_server_cpu host (fun () -> Spawn.spawn_server server_exe args) in
    match Spawn.read_port out with
    | port -> (pid, out, Printf.sprintf "127.0.0.1:%d" port)
    | exception e ->
      kill pid out;
      raise e
  in
  let home_args =
    [ "--port"; "0" ]
    @ match data_dir with Some d -> [ "--data-dir"; d; "--sync"; "never" ] | None -> []
  in
  let home_pid, home_out, home_addr = boot home_args in
  let specs = Spawn.partition_specs ~nusers ~home_addrs:[| home_addr |] in
  let compute_args =
    [ "--port"; "0"; "--join"; Spawn.timeline_join; "--sub-check-every";
      Printf.sprintf "%.0f" heartbeat_s ]
    @ List.concat_map (fun s -> [ "--partition"; s ]) specs
  in
  let compute_pid, compute_out, compute_addr =
    try boot compute_args
    with e ->
      kill home_pid home_out;
      raise e
  in
  let t =
    { home_addr; compute_addr; home_pid; compute_pid; pipes = [ home_out; compute_out ];
      data_dir; beat0 = Clock.now_s (); stopped = false }
  in
  started := t :: !started;
  (* the heartbeat starts with the compute's first fetch: prime it now
     with a read of one (still empty) timeline, so every run's beats sit
     at the same offsets from here *)
  match
    let c = client compute_addr in
    Fun.protect ~finally:(fun () -> Net_client.close c) (fun () ->
        Net_client.call c (Message.Scan { lo = Twipops.timeline_lo 0; hi = Twipops.timeline_hi 0 }))
  with
  | Message.Pairs _ -> t
  | _ ->
    shutdown t;
    failwith "the compute refused the priming read"
  | exception e ->
    shutdown t;
    raise e

(** Shut down every cluster still running: the last resort on the way
    out, whatever path left a cluster behind. *)
let shutdown_all () = List.iter shutdown !started

(* ------------------------------------------------------------------ *)
(* Setup traffic                                                       *)

let expect_ack what = function
  | Message.Done | Message.Stamps _ -> ()
  | Message.Error msg -> failwith (what ^ " failed: " ^ msg)
  | _ -> failwith (what ^ ": unexpected response")

(** Load every preloaded row into the home: [Put_batch] frames of 1000
    rows, pipelined eight deep. *)
let preload t (w : Workloads.t) ~graph =
  let c = client t.home_addr in
  let batch = ref [] and nbatch = ref 0 and batches = ref [] in
  let flush_pipeline () =
    if !batches <> [] then begin
      List.iter (expect_ack "preload") (Net_client.pipeline c (List.rev !batches));
      batches := []
    end
  in
  let cut () =
    if !nbatch > 0 then begin
      batches := Message.Put_batch (List.rev !batch) :: !batches;
      batch := [];
      nbatch := 0;
      if List.length !batches >= 8 then flush_pipeline ()
    end
  in
  Twipops.iter_preload w ~graph (fun k v ->
      batch := (k, v) :: !batch;
      incr nbatch;
      if !nbatch >= 1000 then cut ());
  cut ();
  flush_pipeline ();
  Net_client.close c

(** Log in every user of [users] (whole-timeline scans on the compute,
    32 per pipelined burst), so their timelines are materialized. *)
let warm_up t users =
  let c = client t.compute_addr in
  let n = Array.length users in
  let i = ref 0 in
  while !i < n do
    let k = min 256 (n - !i) in
    let reqs =
      List.init k (fun j ->
          let u = users.(!i + j) in
          Message.Scan { lo = Twipops.timeline_lo u; hi = Twipops.timeline_hi u })
    in
    List.iter
      (function
        | Message.Pairs _ -> ()
        | Message.Error msg -> failwith ("warm-up login failed: " ^ msg)
        | _ -> failwith "warm-up login: unexpected response")
      (Net_client.pipeline ~timeout:60.0 c reqs);
    i := !i + k
  done;
  Net_client.close c

(* ------------------------------------------------------------------ *)
(* Registries and the OS view                                          *)

let stats_full addr =
  let c = client addr in
  Fun.protect
    ~finally:(fun () -> Net_client.close c)
    (fun () ->
      match Net_client.call c Message.Stats_full with
      | Message.Metrics m -> m
      | _ -> failwith ("Stats_full from " ^ addr ^ ": unexpected response"))

let counter metrics name =
  match List.assoc_opt name metrics with
  | Some (Obs.Counter v) | Some (Obs.Gauge v) -> v
  | Some (Obs.Histogram s) -> s.Obs.Histogram.count
  | None -> 0

let hist_sum metrics name =
  match List.assoc_opt name metrics with
  | Some (Obs.Histogram s) -> s.Obs.Histogram.sum
  | _ -> 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** utime + stime of [pid] ("self" for this process), in seconds. The
    kernel reports clock ticks; USER_HZ is 100 on Linux. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  (* fields after the parenthesised command name start at field 3 *)
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(** Peak resident set ([VmHWM]) of [pid], MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  let kb = Scanf.sscanf line "VmHWM: %d kB" Fun.id in
  float_of_int kb /. 1024.0
