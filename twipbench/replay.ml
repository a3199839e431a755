(** The layer replay: the live run's op stream driven in-process
    through the same public functions the servers call, each call timed
    as a child span, so [core]/[proto]/[persist] self time can be read
    without tracing inside the program.

    - reads: the compute's [Server.scan_result] with a resolver that
      answers [Deferred] inside a collecting scan; each missing range is
      served by the home's [Server.scan_result], shipped through
      [Message.encode_response]/[decode_response] as a [Subscribed]
      answer, and installed with the compute's [Server.feed_base];
    - writes: the home's [Server.put] (with [Persist] attached on a
      durable workload, its WAL append a child span), then, when the
      compute holds the written range, the [Notify_batch] push through
      [Message.encode_request]/[decode_request] and
      [Message.apply_to_server] on the compute. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Persist = Pequod_persist.Persist
module Workload = Pequod_apps.Workload
module Smap = Map.Make (String)

type t = {
  home : Server.t;
  compute : Server.t;
  spans : Spans.t;
  persist : Persist.t option;
  mutable fed : string Smap.t;  (** lo -> hi of every range fed to the compute *)
  mutable op : int;  (** op id the current spans belong to *)
}

let span r name f = Spans.with_span r.spans ~op:r.op name f

let held r key =
  match Smap.find_last_opt (fun lo -> String.compare lo key <= 0) r.fed with
  | Some (_, hi) -> String.compare key hi < 0
  | None -> false

(* The home serves a fetch: its scan, the Subscribed answer's trip
   through the codec. *)
let home_fetch r ~table ~lo ~hi =
  let pairs =
    span r "core.replay.home_fetch" (fun () ->
        match Server.scan_result r.home ~lo ~hi with
        | `Ok pairs -> pairs
        | `Missing _ -> failwith ("replay: home is missing " ^ table ^ "[" ^ lo ^ "," ^ hi ^ ")"))
  in
  let wire =
    span r "proto.replay.encode_response" (fun () ->
        Message.encode_response (Message.Subscribed { stamp = 0; pairs }))
  in
  match span r "proto.replay.decode_response" (fun () -> Message.decode_response wire) with
  | Message.Subscribed { pairs; _ } ->
    r.fed <- Smap.add lo hi r.fed;
    pairs
  | _ -> failwith "replay: Subscribed did not round-trip"

let create (w : Workloads.t) ~graph ~dir =
  let config = Config.default () in
  if w.durable then begin
    (* the live home's flush policy (see Cluster.start) *)
    let p = Config.default_persist ~dir in
    p.Config.p_sync <- Config.Sync_never;
    config.Config.persist <- Some p
  end;
  let home = Server.create ~config () in
  let persist =
    Option.map (fun cfg -> Persist.attach home cfg) config.Config.persist
  in
  let compute = Server.create () in
  Server.add_join_exn compute Pequod_load_lib.Spawn.timeline_join;
  let r = { home; compute; spans = Spans.create (); persist; fed = Smap.empty; op = 0 } in
  (* the home's WAL append, timed as a child of the put that logs it *)
  Option.iter
    (fun p ->
      Server.set_mutation_hook home (fun m ->
          span r "persist.replay.append" (fun () -> Persist.on_mutation p m)))
    persist;
  Server.set_resolver compute (fun ~table ~lo ~hi ->
      if not (String.equal table "s" || String.equal table "p") then Server.Local
      else if Server.collecting compute then Server.Deferred
      else Server.Resolved (home_fetch r ~table ~lo ~hi));
  let batch = ref [] and n = ref 0 in
  let flush () =
    Server.put_batch home (List.rev !batch);
    batch := [];
    n := 0
  in
  Twipops.iter_preload w ~graph (fun k v ->
      batch := (k, v) :: !batch;
      incr n;
      if !n >= 1000 then flush ());
  flush ();
  r

let rec scan r ~lo ~hi =
  match span r "core.replay.scan" (fun () -> Server.scan_result r.compute ~lo ~hi) with
  | `Ok pairs -> pairs
  | `Missing ranges ->
    List.iter
      (fun (table, flo, fhi) ->
        let pairs = home_fetch r ~table ~lo:flo ~hi:fhi in
        span r "core.replay.feed_base" (fun () ->
            Server.feed_base r.compute ~table ~lo:flo ~hi:fhi pairs))
      ranges;
    scan r ~lo ~hi

let write r key value =
  span r "core.replay.home_put" (fun () -> Server.put r.home key value);
  if held r key then begin
    let wire =
      span r "proto.replay.encode_request" (fun () ->
          Message.encode_request (Message.Notify_batch { items = [ (key, Some value) ]; stamps = [] }))
    in
    let req = span r "proto.replay.decode_request" (fun () -> Message.decode_request wire) in
    match span r "core.replay.notify_apply" (fun () -> Message.apply_to_server r.compute req) with
    | Message.Done -> ()
    | _ -> failwith "replay: Notify_batch was refused"
  end

let apply r (dest, req) =
  match (dest, req) with
  | Twipops.Compute, Message.Scan { lo; hi } -> ignore (scan r ~lo ~hi)
  | Twipops.Home, Message.Put (k, v) -> write r k v
  | _ -> failwith "replay: request the live generator never sends"

(** Replay the live run: the same setup (preload, then the warm-up
    logins when the workload has them) and the first [skip] ops of the
    seed's stream untimed, then its next [nops] ops, each under a
    ["replay.op"] root span.
    Returns the digest of the replayed ops, which must equal the live
    run's, and the spans. *)
let run (w : Workloads.t) ~seed ~graph ~dir ~skip ~nops ~first_op_id =
  let r = create w ~graph ~dir in
  let st = Twipops.stream w ~seed ~graph in
  let client = Twipops.client ~nusers:w.users ~clock:(w.preload_posts - 1) in
  if w.warm then
    Array.iter
      (fun u ->
        ignore (Twipops.request client (Workload.Login u));
        ignore (scan r ~lo:(Twipops.timeline_lo u) ~hi:(Twipops.timeline_hi u)))
      st.Workload.st_active;
  let digest = ref 0 in
  for _ = 1 to skip do
    let op = Workload.next st in
    digest := Twipops.digest_step !digest op;
    apply r (Twipops.request client op)
  done;
  (* the untimed setup and settling traffic are not part of the replay *)
  r.spans.Spans.spans <- [];
  for i = 0 to nops - 1 do
    let op = Workload.next st in
    digest := Twipops.digest_step !digest op;
    r.op <- first_op_id + i;
    span r "replay.op" (fun () -> apply r (Twipops.request client op))
  done;
  Option.iter Persist.close r.persist;
  (!digest, r.spans)
