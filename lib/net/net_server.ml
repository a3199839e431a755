(** The network-facing Pequod server: a single-threaded, event-driven
    loop (as in the paper's implementation) multiplexing any number of
    client connections over TCP behind the {!Poller} abstraction —
    epoll(7) where the platform has it, [Unix.select] elsewhere.

    Clients speak the length-prefixed binary protocol of
    {!Pequod_proto.Message}. The loop is exposed as [step] so tests (and
    embedding applications) can drive it manually; [run] loops forever.

    Nothing blocks the loop. Every server-to-server exchange goes out
    through the loop's own transport ({!Peers}), and a request whose
    answer depends on a peer — a forward, a piece of a split scan or
    write, a parked read, a migration — takes an in-order response slot
    that its callback fills; later pipelined requests are served
    meanwhile and their answers queue behind it.

    One instance is owned by exactly one domain. The only cross-domain
    entry points are {!inject} (the shard acceptor handing over an
    accepted connection) and {!request_stop}; both go through a mutex
    and a wakeup pipe. Everything else — including {!step} — must be
    called from the owning domain.

    Every request routes by the server's placement ({!set_directory}):
    one ownership map for static [--partition] specs, shard cuts and
    the live partition directory alike. Writes of a governed key go to
    its home, reads to its home or a replica, and scans are served
    piece by piece across homes; everything the placement does not
    govern (join outputs, local tables) is served here. In shard mode
    ({!set_shard}) only connections handed over by the acceptor are
    routed, and [Add_join]/[Stats_full] fan out to every shard; requests
    arriving on a shard's own listener (sibling forwards, fetches,
    subscription pushes) are always applied locally — routing them
    again could loop. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Persist = Pequod_persist.Persist
module Interval_map = Pequod_store.Interval_map
module Outbuf = Peers.Outbuf

let src = Logs.Src.create "pequod.server"

module Log = (val Logs.src_log src : Logs.LOG)

(* One in-order response slot per request whose reply is not produced
   synchronously: the wire protocol has no request ids, so responses
   must leave in per-connection pipeline order. Slots fill out of
   order; only the ready prefix is flushed. *)
type slot = { mutable sl_wire : string option }

type client = {
  fd : Unix.file_descr;
  peer : string;
  decoder : Frame.decoder;
  out : Outbuf.t;
  mutable want_write : bool; (* current poller write interest *)
  injected : bool; (* handed over by the shard acceptor (public traffic) *)
  pending : slot Queue.t; (* unfilled/unflushed response slots, request order *)
  mutable alive : bool; (* false once dropped: late completions discard *)
}

(* A request's answer: called exactly once (never, for one-way
   requests), now or from a later loop step. *)
type reply = Message.response -> unit

(* A stamped read ([Get_at]/[Scan_at]) whose demanded versions the local
   copy does not yet satisfy: parked and re-checked once per step. It
   waits briefly for the subscription push to catch up, then forces a
   refetch of the stale pieces, then fails with a typed [Stale] at the
   deadline — never silently serving old data (docs/SESSIONS.md). *)
type stamp_wait = {
  sw_client : client;
  sw_reply : reply;
  sw_req : Message.request; (* the original Get_at/Scan_at *)
  sw_min : Message.stamp_entry list;
  sw_t0 : int; (* Obs.now_ns at park *)
  mutable sw_refetched : bool;
  mutable sw_fetching : bool; (* explicit refetch of the unmet ranges in flight *)
  mutable sw_fetch_failed : bool; (* refetch failed: owner unreachable, fail [Stale] *)
}

(* Shard mode, installed by the shard layer ([set_shard]): only
   acceptor-handed connections are routed, and Stats_full merges every
   shard's snapshot. *)
type sharding = {
  sh_shards : string list; (* every shard's address, in shard order *)
  sh_merge : (int * (string * Obs.value) list) list -> (string * Obs.value) list;
  sh_ops : Obs.Counter.t; (* shard.ops: requests handled by this shard *)
  sh_client_ops : Obs.Counter.t; (* shard.client.ops: acceptor-handed requests *)
  sh_forward_in : Obs.Counter.t; (* shard.forward.in: forwards received *)
}

(* One live range migration (§ docs/PARTITIONING.md): this server is the
   source home handing [mg_table [mg_lo,mg_hi)] to [mg_dest]. The copy
   runs one batch per event-loop step; writes landing in the range
   during the copy are captured in [mg_delta]. The final replay and the
   epoch flip seal the range: writes to it wait ([mg_held]) until the
   new home owns it, and are then forwarded there. *)
type migration = {
  mg_table : string;
  mg_lo : string;
  mg_hi : string;
  mg_dest : string;
  mutable mg_cursor : string; (* next key to copy *)
  mutable mg_delta : (string * string option) list; (* captured writes, newest first *)
  mutable mg_keys : int;
  mutable mg_deltas : int;
  mg_reply : reply; (* the ctl request awaiting the outcome *)
  mutable mg_waiting : bool; (* a barrier or flip call is in flight *)
  mutable mg_sealed : bool; (* final replay begun: writes to the range wait *)
  mutable mg_held : (client * Message.request * reply) list; (* sealed writes, newest first *)
}

(* The placement every request routes by, installed by
   [set_directory]: this server's copy of the partition directory
   (authoritative when [pl_seed] is [None]) or a pinned static one,
   plus the migration driver and hotspot read tallies. *)
type placement = {
  pl_dir : Directory.t;
  pl_self : string; (* this server's advertised host:port *)
  pl_seed : string option; (* the seed's address; None: this IS the seed *)
  pl_hot_threshold : float; (* reads/s per owned range; 0 disables detection *)
  pl_hot_every : float; (* detection window, seconds *)
  mutable pl_hot_last : float;
  pl_reads : (string * string * string, int ref) Hashtbl.t; (* per-owned-range tallies *)
  mutable pl_mig : migration option; (* at most one migration at a time *)
}

type t = {
  engine : Server.t;
  listener : Unix.file_descr;
  poller : Poller.t;
  conns : (Unix.file_descr, client) Hashtbl.t;
  rbuf : Bytes.t; (* receive buffer *)
  shutdown : bool Atomic.t;
  (* cross-domain handoff: the shard acceptor enqueues accepted fds and
     wakes the loop through the pipe *)
  inj_mu : Mutex.t;
  inj_q : Unix.file_descr Queue.t;
  wakeup_r : Unix.file_descr;
  wakeup_w : Unix.file_descr;
  mutable pl : placement;
  mutable shard : sharding option;
  tx : Peers.t; (* the one way out to other servers *)
  persist : Persist.t option; (* durability manager, when --data-dir is set *)
  (* home-server subscriptions (§2.4): source table -> subscriber
     callback address per fetched range. Installed by [Fetch], stabbed
     on every client-origin write, dropped when pushes to the address
     stop getting through. *)
  subs : (string, string Interval_map.t) Hashtbl.t;
  (* outgoing pushes, coalesced per destination within one read batch:
     one Notify_batch per subscriber per batch, as in the simulator *)
  pending_notify : (string, (string * string option) list) Hashtbl.t; (* dst -> rev items *)
  mutable pending_order : string list; (* destinations, reverse first-enqueue order *)
  (* transport metrics, recorded into the engine's registry so one
     snapshot covers the whole server *)
  m_rpcs : Obs.Counter.t; (* net.rpcs *)
  m_bytes_in : Obs.Counter.t; (* net.bytes_in *)
  m_bytes_out : Obs.Counter.t; (* net.bytes_out *)
  m_req_bytes : Obs.Histogram.t; (* rpc.request.bytes *)
  m_resp_bytes : Obs.Histogram.t; (* rpc.response.bytes *)
  m_fetch_in : Obs.Counter.t; (* peer.fetch.in *)
  m_notify_in : Obs.Counter.t; (* peer.notify.in *)
  m_notify_out : Obs.Counter.t; (* peer.notify.out *)
  m_queue_depth : Obs.Gauge.t; (* shard.queue.depth *)
  m_conns : Obs.Gauge.t; (* shard.conns *)
  metrics_every : float option; (* --metrics-dump period *)
  mutable next_dump : float;
  (* background work run once per event-loop iteration (after I/O), e.g.
     the Remote subscription-healing heartbeat; each callback rate-limits
     itself *)
  mutable tickers : (unit -> unit) list;
  (* the fetch engine, installed by [Remote.attach]: given the full
     missing-range set of a parked read, it issues every fetch (batched
     per peer, single-flighted across waiters) and calls back once all
     of them completed. A server with no remote placement never misses
     (no resolver), so the default is never asked. *)
  mutable fetcher : (string * string * string) list -> (ok:bool -> unit) -> unit;
  m_scan_parked : Obs.Counter.t; (* scan.parked *)
  m_fetch_wait : Obs.Histogram.t; (* resolver.fetch.wait_ns *)
  (* stamped reads parked for freshness, re-checked once per step *)
  mutable stamp_waits : stamp_wait list;
  m_session_reads : Obs.Counter.t; (* session.reads *)
  m_stale_waits : Obs.Counter.t; (* session.stale_waits *)
  m_stale_errors : Obs.Counter.t; (* session.stale_errors *)
  m_stamp_wait : Obs.Histogram.t; (* stamp.wait_ns *)
  m_epoch : Obs.Gauge.t; (* dir.epoch *)
  m_forward_out : Obs.Counter.t; (* shard.forward.out: requests forwarded to a peer *)
  m_keys : Obs.Counter.t; (* migrate.keys_moved *)
  m_delta : Obs.Counter.t; (* migrate.delta_replayed *)
  m_sealed : Obs.Counter.t; (* migrate.sealed_writes *)
  m_replica_reads : Obs.Counter.t; (* replica.reads *)
  m_hot : Obs.Counter.t; (* hotspot.detected *)
}

let placement ?seed ?(hot_threshold = 0.) ?(hot_check_every = 5.0) ~dir ~self_addr () =
  { pl_dir = dir; pl_self = self_addr; pl_seed = seed; pl_hot_threshold = hot_threshold;
    pl_hot_every = hot_check_every; pl_hot_last = Unix.gettimeofday ();
    pl_reads = Hashtbl.create 16; pl_mig = None }

(** Create a server listening on [port] (0 picks a free port; see {!port})
    with the given cache joins installed. When [config.persist] names a
    data directory, prior state is recovered from it first and every
    mutation is logged; [joins] already present after recovery are not
    re-installed. [metrics_every] makes {!step} print one JSON metrics
    snapshot line to stdout every that-many seconds ([--metrics-dump]).
    [backend] forces the poller backend (tests exercise both). *)
let create ?config ?metrics_every ?backend ~port ~joins ~memory_limit () =
  let config = match config with Some c -> c | None -> Config.default () in
  config.Config.memory_limit <- memory_limit;
  let engine = Server.create ~config () in
  let persist = Option.map (Persist.attach engine) config.Config.persist in
  let recovered = Server.join_texts engine in
  List.iter
    (fun j ->
      (* compare canonical forms so a recovered join is not duplicated *)
      let canonical =
        match Pequod_pattern.Joinspec.parse j with
        | Ok spec -> Pequod_pattern.Joinspec.to_string spec
        | Error msg -> failwith msg
      in
      if List.mem canonical recovered then
        Log.info (fun m -> m "join already recovered: %s" j)
      else
        match Server.add_join_text engine j with
        | Ok () -> Log.info (fun m -> m "installed join: %s" j)
        | Error msg -> failwith msg)
    joins;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let poller = Poller.create ?backend () in
  Poller.set poller listener ~read:true ~write:false;
  let wakeup_r, wakeup_w = Unix.pipe () in
  Unix.set_nonblock wakeup_r;
  Unix.set_nonblock wakeup_w;
  Poller.set poller wakeup_r ~read:true ~write:false;
  let obs = Server.obs engine in
  { engine; listener; poller;
    conns = Hashtbl.create 16;
    rbuf = Bytes.create 65_536;
    shutdown = Atomic.make false;
    inj_mu = Mutex.create ();
    inj_q = Queue.create ();
    wakeup_r; wakeup_w;
    (* until [set_directory]: an empty static placement, all local *)
    pl = placement ~dir:(Result.get_ok (Directory.pin [])) ~self_addr:"" ();
    shard = None;
    tx = Peers.create ~obs ~poller;
    persist;
    subs = Hashtbl.create 8;
    pending_notify = Hashtbl.create 8;
    pending_order = [];
    m_rpcs = Obs.counter obs "net.rpcs";
    m_bytes_in = Obs.counter obs "net.bytes_in";
    m_bytes_out = Obs.counter obs "net.bytes_out";
    m_req_bytes = Obs.histogram obs "rpc.request.bytes";
    m_resp_bytes = Obs.histogram obs "rpc.response.bytes";
    m_fetch_in = Obs.counter obs "peer.fetch.in";
    m_notify_in = Obs.counter obs "peer.notify.in";
    m_notify_out = Obs.counter obs "peer.notify.out";
    m_queue_depth = Obs.gauge obs "shard.queue.depth";
    m_conns = Obs.gauge obs "shard.conns";
    metrics_every;
    next_dump =
      (match metrics_every with Some s -> Unix.gettimeofday () +. s | None -> infinity);
    tickers = [];
    fetcher = (fun _ k -> k ~ok:false);
    m_scan_parked = Obs.counter obs "scan.parked";
    m_fetch_wait = Obs.histogram obs "resolver.fetch.wait_ns";
    stamp_waits = [];
    m_session_reads = Obs.counter obs "session.reads";
    m_stale_waits = Obs.counter obs "session.stale_waits";
    m_stale_errors = Obs.counter obs "session.stale_errors";
    m_stamp_wait = Obs.histogram obs "stamp.wait_ns";
    m_epoch = Obs.gauge obs "dir.epoch";
    m_forward_out = Obs.counter obs "shard.forward.out";
    m_keys = Obs.counter obs "migrate.keys_moved";
    m_delta = Obs.counter obs "migrate.delta_replayed";
    m_sealed = Obs.counter obs "migrate.sealed_writes";
    m_replica_reads = Obs.counter obs "replica.reads";
    m_hot = Obs.counter obs "hotspot.detected" }

let engine t = t.engine
let persist t = t.persist
let poller_backend t = Poller.backend t.poller

(** The loop's outgoing transport (see {!Peers}): [Remote]'s fetcher,
    heal and poll go out through it. *)
let transport t = t.tx

(** Register background work to run once per {!step} (after I/O); the
    callback is responsible for its own rate limiting. *)
let add_ticker t f = t.tickers <- t.tickers @ [ f ]

(** Install the fetch engine (see [Remote.attach]): reads missing base
    ranges park, and [fetcher] is handed the full missing set plus a
    completion callback. *)
let set_fetcher t fetcher = t.fetcher <- fetcher

(** Put this server in shard mode (see shard.ml): only connections
    handed over by the acceptor are routed, [Add_join] fans out to every
    other home of the placement, and [Stats_full] answers [merge] over
    the snapshots of [shards] (every shard's address, this one
    included, in shard order). Call once, before serving, after
    {!set_directory}. *)
let set_shard t ~shards ~merge =
  let obs = Server.obs t.engine in
  t.shard <-
    Some
      { sh_shards = shards;
        sh_merge = merge;
        sh_ops = Obs.counter obs "shard.ops";
        sh_client_ops = Obs.counter obs "shard.client.ops";
        sh_forward_in = Obs.counter obs "shard.forward.in" }

(* hotspot detection: once per window, compare each owned range's read
   tally against the threshold; a hot range is counted and logged with
   the pequod_ctl command that would replicate it. Replication itself
   stays an operator decision — the directory is shared cluster state. *)
let hotspot_tick t () =
  let pl = t.pl in
  let now = Unix.gettimeofday () in
  let dt = now -. pl.pl_hot_last in
  if dt >= pl.pl_hot_every then begin
    pl.pl_hot_last <- now;
    Hashtbl.iter
      (fun (table, lo, hi) r ->
        let rate = float_of_int !r /. dt in
        if rate >= pl.pl_hot_threshold then begin
          Obs.Counter.incr t.m_hot;
          Log.warn (fun m ->
              m
                "hot range %s[%s,%s): %.0f reads/s (threshold %.0f); consider: \
                 pequod_ctl replicate %s %s %s %s REPLICA_ADDR"
                table lo hi rate pl.pl_hot_threshold
                (Option.value pl.pl_seed ~default:pl.pl_self)
                table lo hi)
        end;
        r := 0)
      pl.pl_reads
  end

(** Install this server's placement: [dir] is a pinned static one
    ([--partition] specs, shard cuts) or its copy of the partition
    directory (the authoritative one when [seed] is [None] — the
    [--dir-host] role — a follower copy polled from [seed] otherwise).
    Requests then route by it: writes whose home is another server are
    forwarded, reads go to a replica or the home, scans are served
    piecewise. A dynamic directory also enables serving
    [Dir_get]/[Dir_watch]/[Dir_update], the [Migrate] driver, and
    hotspot detection over the per-owned-range read tallies
    ([hot_threshold] reads/s over [hot_check_every]-second windows; 0
    disables). Call once, before serving; pair it with {!Remote.attach}
    on the same [dir]. *)
let set_directory t ?seed ?(hot_threshold = 0.) ?hot_check_every ~dir ~self_addr () =
  t.pl <- placement ?seed ~hot_threshold ?hot_check_every ~dir ~self_addr ();
  Obs.Gauge.set t.m_epoch (Directory.epoch dir);
  if hot_threshold > 0. then add_ticker t (hotspot_tick t)

(** The port actually bound (useful with [~port:0]). *)
let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Net_server.port"

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> path
  | exception _ -> "?"

let drop t client =
  Log.info (fun m -> m "client %s disconnected" client.peer);
  client.alive <- false;
  Poller.remove t.poller client.fd;
  Hashtbl.remove t.conns client.fd;
  Obs.Gauge.set t.m_conns (Hashtbl.length t.conns);
  try Unix.close client.fd with Unix.Unix_error _ -> ()

(* keep the poller's write interest in sync with pending output *)
let update_interest t client =
  let want = Outbuf.length client.out > 0 in
  if want <> client.want_write then begin
    client.want_write <- want;
    Poller.set t.poller client.fd ~read:true ~write:want
  end

(* try to flush buffered output; keep the rest for the next round *)
let flush_output t client =
  if Outbuf.length client.out > 0 then begin
    match Outbuf.write client.out client.fd with
    | n ->
      Outbuf.consumed client.out n;
      update_interest t client
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
      update_interest t client
    | exception Unix.Unix_error _ -> drop t client
  end

(* move the ready prefix of the slot queue into the output buffer: a
   filled slot behind an unfilled one waits (pipeline order) *)
let flush_ready client =
  let rec go () =
    match Queue.peek_opt client.pending with
    | Some { sl_wire = Some wire } ->
      ignore (Queue.pop client.pending);
      Outbuf.add_frame client.out wire;
      go ()
    | _ -> ()
  in
  go ()

(* queue one encoded response in request order: straight to the output
   buffer unless an earlier request's slot is still unfilled *)
let enqueue_response t client wire =
  Obs.Counter.add t.m_bytes_out (String.length wire + 4);
  Obs.Histogram.observe t.m_resp_bytes (String.length wire + 4);
  if Queue.is_empty client.pending then Outbuf.add_frame client.out wire
  else Queue.add { sl_wire = Some wire } client.pending

(* fill a deferred response slot and flush whatever prefix is ready *)
let fill_slot t client slot response =
  let wire = Message.encode_response response in
  Obs.Counter.add t.m_bytes_out (String.length wire + 4);
  Obs.Histogram.observe t.m_resp_bytes (String.length wire + 4);
  slot.sl_wire <- Some wire;
  if client.alive then begin
    flush_ready client;
    flush_output t client
  end

(* ------------------------------------------------------------------ *)
(* Subscription push (§2.4): the live-cluster version of the
   simulator's coalesced Notify_batch protocol.                        *)

let subs_for t table =
  match Hashtbl.find_opt t.subs table with
  | Some im -> im
  | None ->
    let im = Interval_map.create () in
    Hashtbl.add t.subs table im;
    im

(* a subscriber stopped taking pushes: forget every subscription it
   held, so one dead peer costs one failed connection, not one per
   write forever. Not silent for a subscriber that is in fact alive:
   its periodic Sub_check no longer lists the dropped ranges, so it
   refetches and resubscribes instead of serving a frozen copy. *)
let drop_subscriber t addr =
  Hashtbl.iter
    (fun _ im ->
      let doomed = ref [] in
      Interval_map.iter im (fun h ->
          if String.equal (Interval_map.handle_data h) addr then doomed := h :: !doomed);
      List.iter (Interval_map.remove im) !doomed)
    t.subs

(* queue one update for every subscriber whose fetched range contains
   [key]; flushed once per read batch *)
let buffer_notify t key value_opt =
  (* a write applied while this server is mid-migration of a range
     containing [key] is part of the handoff delta: the snapshot chunk
     covering it may already have been copied *)
  (match t.pl.pl_mig with
  | Some mg when String.compare mg.mg_lo key <= 0 && String.compare key mg.mg_hi < 0 ->
    mg.mg_delta <- (key, value_opt) :: mg.mg_delta
  | _ -> ());
  if Hashtbl.length t.subs > 0 then
    match Hashtbl.find_opt t.subs (Pequod_store.Store.table_name_of key) with
    | None -> ()
    | Some im ->
      let targets = ref [] in
      Interval_map.stab im key (fun h -> targets := Interval_map.handle_data h :: !targets);
      List.iter
        (fun dst ->
          let prev =
            match Hashtbl.find_opt t.pending_notify dst with
            | Some items -> items
            | None ->
              t.pending_order <- dst :: t.pending_order;
              []
          in
          Hashtbl.replace t.pending_notify dst ((key, value_opt) :: prev))
        (List.sort_uniq compare !targets)

(* one Notify_batch per destination with pending updates, posted
   one-way through the transport (never blocking on the subscriber). A
   push whose connection fails, or whose output stalls past the
   transport's deadline, drops that subscriber. *)
let flush_notifications t =
  let order = List.rev t.pending_order in
  t.pending_order <- [];
  List.iter
    (fun dst ->
      match Hashtbl.find_opt t.pending_notify dst with
      | None | Some [] -> ()
      | Some rev_items ->
        Hashtbl.remove t.pending_notify dst;
        let items = List.rev rev_items in
        (* stamp trailer: once [items] are applied, every subscribed
           range of [dst] containing one of the pushed keys is current
           through the stamp recorded here — pushes leave in write order
           per connection, so the floor over the range at flush time is
           a sound promise *)
        let stamps = ref [] in
        List.iter
          (fun (key, _) ->
            let table = Pequod_store.Store.table_name_of key in
            match Hashtbl.find_opt t.subs table with
            | None -> ()
            | Some im ->
              Interval_map.stab im key (fun h ->
                  if String.equal (Interval_map.handle_data h) dst then begin
                    let slo, shi = Interval_map.handle_range h in
                    if
                      not
                        (List.exists
                           (fun (tb, l, h', _) ->
                             String.equal tb table && String.equal l slo
                             && String.equal h' shi)
                           !stamps)
                    then
                      stamps :=
                        ( table, slo, shi,
                          Server.range_stamp t.engine ~table ~lo:slo ~hi:shi )
                        :: !stamps
                  end))
          items;
        let stamps = List.filter (fun (_, _, _, s) -> s > 0) !stamps in
        Obs.Counter.incr t.m_notify_out;
        Peers.post t.tx dst
          ~on_fail:(fun msg ->
            Log.warn (fun m -> m "dropping subscriber %s: %s" dst msg);
            drop_subscriber t dst)
          (Message.Notify_batch { items; stamps }))
    order

(* ------------------------------------------------------------------ *)
(* Placement routing: one forward path for every topology              *)

(* one call through the transport; a transport failure answers Error *)
let peer_call t ~timeout addr req k =
  Peers.call t.tx ~timeout addr req (function
    | Ok resp -> k resp
    | Error msg -> k (Message.Error (Printf.sprintf "home %s: %s" addr msg)))

(* forward one request to the peer the placement names *)
let forward t addr req k =
  Obs.Counter.incr t.m_forward_out;
  peer_call t ~timeout:Peers.forward_timeout addr req k

(* Run every job (each answers its callback exactly once) and hand [k]
   the answers in job order once the last one is in. *)
let gather jobs k =
  match jobs with
  | [] -> k []
  | _ ->
    let answers = Array.make (List.length jobs) Message.Done in
    let left = ref (Array.length answers) in
    List.iteri
      (fun i job ->
        job (fun resp ->
            answers.(i) <- resp;
            decr left;
            if !left = 0 then k (Array.to_list answers)))
      jobs

(* Where must a write of [key] be applied? [Some home] when the
   placement names another server: after a migration flips a range away
   from this server, stale-routed writers keep sending here — forwarding
   (rather than applying to the no-longer-authoritative local copy) is
   what keeps the handoff divergence-free. *)
let write_home t key =
  match Directory.home_of t.pl.pl_dir ~key with
  | Some h when not (String.equal h t.pl.pl_self) -> Some h
  | _ -> None

(* Where should a read of a range governed by [e] be served? [None]:
   locally — this server is the home, a listed replica (whose copy is
   kept fresh by its subscription), or nothing governs it (join
   outputs, local tables). Otherwise the ordered candidates to try. *)
let read_target t = function
  | Some e when not (Directory.serves e ~self:t.pl.pl_self) ->
    Some (Directory.candidates e ~self:t.pl.pl_self)
  | _ -> None

(* forward a read, falling through the candidate list (a dead or
   refusing replica costs one hop, not the answer). A [Stale] answer —
   a replica whose copy has not caught up to a stamped read's demand —
   also falls through: the home, always last, is authoritative and can
   never be stale. *)
let read_forward t cands req k =
  let rec go = function
    | [] -> k (Message.Error "no reachable server for the range")
    | [ addr ] -> forward t addr req k
    | addr :: rest ->
      forward t addr req (function Message.Error _ | Message.Stale _ -> go rest | resp -> k resp)
  in
  go cands

(* read tallies for hotspot detection (owned ranges) and the
   replica.reads counter (ranges this server replicates), by the entry
   governing the read *)
let tally_read t entry =
  let pl = t.pl in
  match entry with
  | None -> ()
  | Some e ->
    if String.equal e.Message.de_home pl.pl_self then begin
      if pl.pl_hot_threshold > 0. then begin
        let k = (e.Message.de_table, e.Message.de_lo, e.Message.de_hi) in
        match Hashtbl.find_opt pl.pl_reads k with
        | Some r -> incr r
        | None -> Hashtbl.add pl.pl_reads k (ref 1)
      end
    end
    else if List.mem pl.pl_self e.Message.de_replicas then
      Obs.Counter.incr t.m_replica_reads

(* clamp a stamp demand vector to one scan piece: only the entries
   intersecting [lo, hi), each cut down to the intersection *)
let clamp_min min ~lo ~hi =
  List.filter_map
    (fun (table, dlo, dhi, s) ->
      if String.compare dlo hi < 0 && String.compare lo dhi < 0 then
        Some
          ( table,
            (if String.compare lo dlo < 0 then dlo else lo),
            (if String.compare dhi hi < 0 then dhi else hi),
            s )
      else None)
    min

(* ------------------------------------------------------------------ *)
(* Parked reads: a miss never blocks the loop                          *)

(* a parked read that keeps discovering new ranges (each feed can unlock
   further check-gated value ranges) retries at most this many times *)
let max_park_retries = 64

let missing_error = function
  | (table, flo, fhi) :: _ ->
    Message.Error
      (Printf.sprintf "missing base range %s[%s,%s): owning peer unreachable" table flo fhi)
  | [] -> Message.Error "missing base range: owning peer unreachable"

(* The one engine read, [lo, hi) served here. A miss parks: the full
   missing set goes to the fetcher, and the scan is retried when the
   fetches land. A retry may surface ranges that were unreachable
   before the feed (a check source gates which value ranges are
   scanned), so the loop runs until the scan completes or the retry
   budget is spent. The connection stays live throughout: later
   pipelined requests are served (their responses queue behind this
   one's slot) and other connections never notice. *)
let read_local t ~lo ~hi k =
  let t0 = Obs.now_ns () in
  let rec attempt tries =
    match Server.scan_result t.engine ~lo ~hi with
    | `Ok pairs -> finish tries (Message.Pairs pairs)
    | `Missing ranges ->
      if tries = 0 then Obs.Counter.incr t.m_scan_parked;
      if tries >= max_park_retries then finish tries (missing_error ranges)
      else
        t.fetcher ranges (fun ~ok ->
            if ok then attempt (tries + 1) else finish tries (missing_error ranges))
    | exception e -> finish tries (Message.Error (Printexc.to_string e))
  and finish tries resp =
    if tries > 0 then Obs.Histogram.observe t.m_fetch_wait (Obs.now_ns () - t0);
    k resp
  in
  attempt 0

(* a point read is a one-key engine read *)
let read_key t key k =
  read_local t ~lo:key ~hi:(Strkey.key_after key) (function
    | Message.Pairs pairs -> k (Message.Value (List.assoc_opt key pairs))
    | resp -> k resp)

let serve_read t req k =
  match req with
  | Message.Get key | Message.Get_at { key; _ } -> read_key t key k
  | Message.Scan { lo; hi } | Message.Scan_at { lo; hi; _ } -> read_local t ~lo ~hi k
  | _ -> invalid_arg "Net_server.serve_read"

(* ------------------------------------------------------------------ *)
(* Parked stamped reads: freshness never blocks the loop either        *)

(* The push normally lands within one event-loop step of the write ack
   (the owner flushes notifications in the same cycle as the ack), so a
   short grace is enough; past it a refetch — one fetch round trip — is
   far cheaper than keeping the reader parked. *)
let stamp_refetch_after_ns = 5_000_000 (* give the push 5ms to catch up *)
let stamp_deadline_ns = 2_000_000_000 (* then the read fails [Stale] *)

(* Drop the copies that cannot prove [unmet] and fetch them back; [k]
   runs when the refetch completed. The serving read need not scan the
   ranges it demands (a timeline read demands its sources), so dropping
   alone is not enough: the refetch's [feed_base] re-fires the updaters,
   repairing derived data computed from the stale copy, and re-records
   the owner's stamp. *)
let refetch_demand t unmet k =
  List.iter (fun (table, lo, hi, _) -> Server.unmark_present t.engine ~table ~lo ~hi) unmet;
  t.fetcher (List.map (fun (table, lo, hi, _) -> (table, lo, hi)) unmet) k

(* One pump pass over the parked stamped reads, called once per step:
   a wait whose demand the subscription push has satisfied is served; a
   wait older than [stamp_refetch_after_ns] refetches its stale pieces
   from their owner; a wait older than [stamp_deadline_ns] fails with
   the typed [Stale] carrying the unmet sub-ranges. *)
let pump_stamp_waits t =
  match t.stamp_waits with
  | [] -> ()
  | waits ->
    t.stamp_waits <- [];
    let keep = ref [] in
    List.iter
      (fun w ->
        if w.sw_client.alive then begin
          let serve () =
            Obs.Histogram.observe t.m_stamp_wait (Obs.now_ns () - w.sw_t0);
            serve_read t w.sw_req w.sw_reply
          in
          let stale unmet waited =
            Obs.Counter.incr t.m_stale_errors;
            Obs.Histogram.observe t.m_stamp_wait waited;
            w.sw_reply (Message.Stale unmet)
          in
          match Server.stamp_unsatisfied t.engine w.sw_min with
          | [] -> serve ()
          | unmet ->
            let waited = Obs.now_ns () - w.sw_t0 in
            if waited >= stamp_deadline_ns then stale unmet waited
            else begin
              if waited >= stamp_refetch_after_ns && not w.sw_refetched then begin
                (* the push is not catching up: only a completed
                   refetch, which re-records the owner's stamp,
                   discharges the demand *)
                w.sw_refetched <- true;
                w.sw_fetching <- true;
                refetch_demand t unmet (fun ~ok ->
                    w.sw_fetching <- false;
                    if not ok then w.sw_fetch_failed <- true)
              end;
              if w.sw_fetch_failed then
                (* the owner is unreachable: freshness cannot be
                   re-established, so fail honestly and fast *)
                stale unmet waited
              else if
                w.sw_refetched && (not w.sw_fetching)
                && Server.stamp_unsatisfied t.engine w.sw_min = []
              then serve ()
              else keep := w :: !keep
            end
        end)
      waits;
    t.stamp_waits <- !keep @ t.stamp_waits

(* Serve a stamped read: answer at once when the demand is already
   satisfied, else park it for the per-step pump. *)
let serve_stamped t client req ~min k =
  match Server.stamp_unsatisfied t.engine min with
  | [] -> serve_read t req k
  | _ ->
    Obs.Counter.incr t.m_stale_waits;
    t.stamp_waits <-
      { sw_client = client; sw_reply = k; sw_req = req; sw_min = min;
        sw_t0 = Obs.now_ns (); sw_refetched = false; sw_fetching = false;
        sw_fetch_failed = false }
      :: t.stamp_waits

(* ------------------------------------------------------------------ *)
(* Migration: the source side of a live range handoff                  *)

(* start a [Migrate]: validate against the directory, then hand off to
   the per-step pump ([pump_migration]); [k] answers only when the
   handoff completes (or fails) *)
let start_migration t ~table ~lo ~hi ~dest k =
  let pl = t.pl in
  let refuse msg = k (Message.Error msg) in
  if Directory.pinned pl.pl_dir then refuse "no partition directory on this server"
  else if pl.pl_mig <> None then refuse "a migration is already in progress"
  else if Directory.epoch pl.pl_dir = 0 then
    refuse "no directory epoch yet; seed the directory first"
  else if String.equal dest pl.pl_self then refuse "destination is this server"
  else begin
    (* dry-run the flip now so a doomed migration fails before any data
       moves: the range must be fully covered, by one home *)
    match Directory.assign (Directory.entries pl.pl_dir) ~table ~lo ~hi ~home:dest with
    | Error msg -> refuse msg
    | Ok _ ->
      if not (Directory.home_of pl.pl_dir ~key:lo = Some pl.pl_self) then
        refuse (Printf.sprintf "this server is not the home of %s[%s,%s)" table lo hi)
      else begin
        Log.app (fun m -> m "migrating %s[%s,%s) to %s" table lo hi dest);
        pl.pl_mig <-
          Some
            { mg_table = table; mg_lo = lo; mg_hi = hi; mg_dest = dest; mg_cursor = lo;
              mg_delta = []; mg_keys = 0; mg_deltas = 0; mg_reply = k; mg_waiting = false;
              mg_sealed = false; mg_held = [] }
      end
  end

(* the keys a request writes *)
let written_keys = function
  | Message.Put (k, _) | Message.Remove k -> [ k ]
  | Message.Put_batch pairs -> List.map fst pairs
  | _ -> []

(* A write into a range whose migration is sealed waits for the flip
   (then [dispatch] runs it again, routed to the new home); true when
   [req] was held. *)
let hold_sealed t client req k =
  match t.pl.pl_mig with
  | Some mg
    when mg.mg_sealed
         && List.exists
              (fun key -> String.compare mg.mg_lo key <= 0 && String.compare key mg.mg_hi < 0)
              (written_keys req) ->
    Obs.Counter.incr t.m_sealed;
    mg.mg_held <- (client, req, k) :: mg.mg_held;
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* Apply one request to this server's own engine, whatever the
   placement says — routing happened above ([dispatch]). One-way
   requests never answer. *)
let handle_local t client req k =
  match req with
  | Message.Fetch { table; lo; hi; subscriber } -> (
    Obs.Counter.incr t.m_fetch_in;
    let entry = Directory.entry_of t.pl.pl_dir ~key:lo in
    tally_read t entry;
    (* refuse to grant a subscription on a range the placement homes
       elsewhere (unless this server replicates it — a replica's copy
       is subscription-fresh, so middleman serving is sound). A
       post-migration straggler fetching from the old home gets an
       error and replans off its refreshed directory, instead of a
       frozen snapshot. *)
    match entry with
    | Some e when not (Directory.serves e ~self:t.pl.pl_self) ->
      k
        (Message.Error
           (Printf.sprintf "not the home for %s[%s,%s) (directory names %s)" table lo hi
              e.Message.de_home))
    | _ -> (
    (* refetches of the same range by the same subscriber (eviction
       pressure, subscription healing) are idempotent on the subs
       table: an identical live entry is reused, never duplicated,
       so a long-lived subscriber cannot grow it without bound *)
    let im = subs_for t table in
    let already = ref false in
    Interval_map.iter_overlapping im ~lo ~hi (fun h ->
        if
          (not !already)
          && Interval_map.handle_range h = (lo, hi)
          && String.equal (Interval_map.handle_data h) subscriber
        then already := true);
    (* install the subscription before snapshotting: a write landing
       in between is pushed as well, and the duplicate application
       at the subscriber is idempotent *)
    let handle =
      if subscriber = "" || !already then None
      else Some (Interval_map.add im ~lo ~hi subscriber)
    in
    match Server.scan_result t.engine ~lo ~hi with
    | `Ok pairs ->
      (* the stamp this snapshot is current through: the subscriber
         records it, and session reads demand at least it *)
      k (Message.Subscribed { stamp = Server.range_stamp t.engine ~table ~lo ~hi; pairs })
    | `Missing _ ->
      (* this server does not own the range; rescind the subscription *)
      Option.iter (Interval_map.remove (subs_for t table)) handle;
      k (Message.Error (Printf.sprintf "not the home for %s[%s,%s)" table lo hi))
    | exception e ->
      Option.iter (Interval_map.remove (subs_for t table)) handle;
      k (Message.Error (Printexc.to_string e))))
  | Message.Sub_check { subscriber } ->
    (* subscription heartbeat: report every range still pushed to
       this subscriber, so it can detect (and heal) a drop *)
    let ranges = ref [] in
    Hashtbl.iter
      (fun table im ->
        Interval_map.iter im (fun h ->
            if String.equal (Interval_map.handle_data h) subscriber then begin
              let lo, hi = Interval_map.handle_range h in
              ranges := (table, lo, hi) :: !ranges
            end))
      t.subs;
    k (Message.Sub_ranges (List.sort compare !ranges))
  | Message.Notify_put (key, v) ->
    ignore (Message.apply_to_server t.engine req);
    Obs.Counter.incr t.m_notify_in;
    buffer_notify t key (Some v)
  | Message.Notify_remove key ->
    ignore (Message.apply_to_server t.engine req);
    Obs.Counter.incr t.m_notify_in;
    buffer_notify t key None
  | Message.Notify_batch { items; _ } ->
    (* [apply_to_server] applies the items and records the stamp
       trailer, so the freshness promise lands with the data *)
    ignore (Message.apply_to_server t.engine req);
    Obs.Counter.incr t.m_notify_in;
    List.iter (fun (key, v) -> buffer_notify t key v) items
  | Message.Put (key, v) ->
    let resp = Message.apply_to_server t.engine req in
    buffer_notify t key (Some v);
    k resp
  | Message.Remove key ->
    let resp = Message.apply_to_server t.engine req in
    buffer_notify t key None;
    k resp
  | Message.Put_batch pairs ->
    let resp = Message.apply_to_server t.engine req in
    List.iter (fun (key, v) -> buffer_notify t key (Some v)) pairs;
    k resp
  | Message.Get _ | Message.Scan _ -> serve_read t req k
  | Message.Get_at { min; _ } | Message.Scan_at { min; _ } ->
    Obs.Counter.incr t.m_session_reads;
    serve_stamped t client req ~min k
  | Message.Dir_get | Message.Dir_watch _ | Message.Dir_update _ -> (
    let dir = t.pl.pl_dir in
    let state () =
      Message.Dir_state { epoch = Directory.epoch dir; entries = Directory.entries dir }
    in
    match req with
    | _ when Directory.pinned dir -> k (Message.Error "no partition directory on this server")
    | Message.Dir_get -> k (state ())
    | Message.Dir_watch { epoch } ->
      k (if Directory.epoch dir > epoch then state () else Message.Done)
    | Message.Dir_update { epoch; entries } -> (
      match Directory.install dir ~epoch ~entries with
      | Ok () ->
        Obs.Gauge.set t.m_epoch epoch;
        Log.info (fun m ->
            m "directory updated to epoch %d (%d entries)" epoch (List.length entries));
        k Message.Done
      | Error msg -> k (Message.Error msg))
    | _ -> assert false)
  | Message.Migrate { table; lo; hi; dest } -> start_migration t ~table ~lo ~hi ~dest k
  | req -> k (Message.apply_to_server t.engine req)

(* A scan the placement splits. Pieces homed (or replicated) here, and
   gaps nothing governs, are engine reads here (parking on a miss);
   pieces homed elsewhere forward a clamped [Scan] to a replica or the
   home; a scatter asks every home for the whole range. Every piece is
   under way at once. Pieces come back in key order, so concatenation
   is the ordered answer; scatter answers merge, deduped by key, the
   local answer winning ties.

   [min] is a stamped read's demand vector ([] for plain scans): the
   local copy is refetched first where it cannot prove the demand, and
   remote pieces forward a clamped [Scan_at] so each candidate enforces
   the demand on its own copy (a stale replica answers [Stale] and
   [read_forward] falls through to the home). Any [Stale] answer makes
   the whole scan [Stale]. *)
let composite_scan t ~lo ~hi ~min route k =
  let serve () =
    let req ~lo ~hi =
      match clamp_min min ~lo ~hi with
      | [] -> Message.Scan { lo; hi }
      | m -> Message.Scan_at { lo; hi; min = m }
    in
    let jobs, merge =
      match route with
      | `Pieces pieces ->
        ( List.map
            (fun (e, plo, phi) ->
              match read_target t e with
              | None -> read_local t ~lo:plo ~hi:phi
              | Some cands -> read_forward t cands (req ~lo:plo ~hi:phi))
            pieces,
          List.concat )
      | `Scatter homes ->
        ( read_local t ~lo ~hi
          :: List.filter_map
               (fun h ->
                 if String.equal h t.pl.pl_self then None else Some (forward t h (req ~lo ~hi)))
               homes,
          List.fold_left Directory.merge_dedup [] )
    in
    gather jobs (fun answers ->
        let stale = List.concat_map (function Message.Stale st -> st | _ -> []) answers in
        let err =
          List.find_map
            (function
              | Message.Pairs _ | Message.Stale _ -> None
              | Message.Error m -> Some m
              | _ -> Some "unexpected scan response")
            answers
        in
        k
          (match (stale, err) with
          | _ :: _, _ -> Message.Stale stale
          | [], Some m -> Message.Error m
          | [], None ->
            Message.Pairs (merge (List.map (function Message.Pairs p -> p | _ -> []) answers))))
  in
  match min with
  | [] -> serve ()
  | _ -> (
    Obs.Counter.incr t.m_session_reads;
    match Server.stamp_unsatisfied t.engine min with
    | [] -> serve ()
    | unmet ->
      Obs.Counter.incr t.m_stale_waits;
      refetch_demand t unmet (fun ~ok:_ ->
          match Server.stamp_unsatisfied t.engine min with
          | [] -> serve ()
          | still ->
            Obs.Counter.incr t.m_stale_errors;
            k (Message.Stale still)))

(* A scan that is one piece — every join-output read, every scan inside
   one home's range — is the engine's own or one forward; anything
   wider is composite. *)
let route_scan t client ~lo ~hi ~min req k =
  tally_read t (Directory.entry_of t.pl.pl_dir ~key:lo);
  match Directory.scan_route t.pl.pl_dir ~lo ~hi with
  | `Pieces [] -> handle_local t client req k
  | `Pieces [ (e, _, _) ] -> (
    match read_target t e with
    | None -> handle_local t client req k
    | Some cands -> read_forward t cands req k)
  | route -> composite_scan t ~lo ~hi ~min route k

(* fold the answers of a split write: the first error wins, else [ok] *)
let gather_acks answers ~ok =
  match
    List.find_map
      (function
        | Message.Stamps _ | Message.Done -> None
        | Message.Error m -> Some m
        | _ -> Some "unexpected forward response")
      answers
  with
  | Some m -> Message.Error m
  | None -> ok answers

(* Split a Put_batch by home ([None]: applied here), preserving
   per-target order; forward each remote group and reassemble one stamp
   vector for the ack. A batch homed entirely here — every batch a home
   is sent — costs one ownership check per pair. *)
let route_put_batch t client pairs k =
  if List.for_all (fun (key, _) -> write_home t key = None) pairs then
    handle_local t client (Message.Put_batch pairs) k
  else begin
    let groups : (string option, (string * string) list) Hashtbl.t = Hashtbl.create 4 in
    let order = ref [] in
    List.iter
      (fun ((key, _) as p) ->
        let tgt = write_home t key in
        match Hashtbl.find_opt groups tgt with
        | Some l -> Hashtbl.replace groups tgt (p :: l)
        | None ->
          order := tgt :: !order;
          Hashtbl.add groups tgt [ p ])
      pairs;
    gather
      (List.rev_map
         (fun tgt ->
           let sub = Message.Put_batch (List.rev (Hashtbl.find groups tgt)) in
           match tgt with
           | None -> handle_local t client sub
           | Some h -> forward t h sub)
         !order)
      (fun answers ->
        k
          (gather_acks answers ~ok:(fun acks ->
               Message.Stamps (List.concat_map (function Message.Stamps s -> s | _ -> []) acks))))
  end

(* requests whose kind only reaches a shard's own listener as a sibling
   forward (never as fetch/subscription/heartbeat traffic): the
   conservation invariant sum(shard.forward.in) == sum(shard.forward.out)
   across shards counts exactly these *)
let forward_kind = function
  | Message.Get _ | Message.Put _ | Message.Remove _ | Message.Put_batch _
  | Message.Add_join _ | Message.Scan _ | Message.Get_at _ | Message.Scan_at _ ->
    true
  | _ -> false

(* route one decoded request by the placement. In shard mode only
   acceptor-handed connections are routed; everything arriving on the
   shard's own listener is local *)
let dispatch t client req k =
  let routed =
    match t.shard with
    | None -> true
    | Some sh ->
      Obs.Counter.incr sh.sh_ops;
      if client.injected then Obs.Counter.incr sh.sh_client_ops
      else if forward_kind req then Obs.Counter.incr sh.sh_forward_in;
      client.injected
  in
  if not routed then handle_local t client req k
  else if hold_sealed t client req k then ()
  else
    match (req, t.shard) with
    | (Message.Put (key, _) | Message.Remove key), _ -> (
      match write_home t key with
      | Some h -> forward t h req k
      | None -> handle_local t client req k)
    | (Message.Get key | Message.Get_at { key; _ }), _ -> (
      let entry = Directory.entry_of t.pl.pl_dir ~key in
      tally_read t entry;
      match read_target t entry with
      | Some cands -> read_forward t cands req k
      | None -> handle_local t client req k)
    | Message.Put_batch pairs, _ -> route_put_batch t client pairs k
    | Message.Scan { lo; hi }, _ -> route_scan t client ~lo ~hi ~min:[] req k
    | Message.Scan_at { lo; hi; min }, _ -> route_scan t client ~lo ~hi ~min req k
    | Message.Add_join _, Some _ ->
      (* install on every shard: each materializes the join for the
         timeline slices its clients scan *)
      handle_local t client req (function
        | Message.Done ->
          gather
            (List.filter_map
               (fun h ->
                 if String.equal h t.pl.pl_self then None else Some (forward t h req))
               (Directory.homes t.pl.pl_dir))
            (fun answers -> k (gather_acks answers ~ok:(fun _ -> Message.Done)))
        | other -> k other)
    | Message.Stats_full, Some sh ->
      gather
        (List.map
           (fun a k ->
             if String.equal a t.pl.pl_self then
               k (Message.Metrics (Server.metrics_snapshot t.engine))
             else peer_call t ~timeout:Peers.forward_timeout a Message.Stats_full k)
           sh.sh_shards)
        (fun answers ->
          k
            (Message.Metrics
               (sh.sh_merge
                  (List.mapi
                     (fun i -> function
                       | Message.Metrics m -> (i, m)
                       | resp ->
                         (match resp with
                         | Message.Error msg ->
                           Log.warn (fun m -> m "stats from shard %d failed: %s" i msg)
                         | _ -> ());
                         (i, []))
                     answers))))
    | _ -> handle_local t client req k

(* one frame, decoded straight out of the receive buffer (no copy). An
   answer ready before [dispatch] returns goes straight out; otherwise
   the request takes an in-order slot its callback fills later. *)
let handle_frame t client buf ~off ~len =
  Obs.Counter.incr t.m_rpcs;
  Obs.Histogram.observe t.m_req_bytes len;
  match Message.decode_request_view buf ~off ~len with
  | exception Message.Protocol_error msg ->
    enqueue_response t client (Message.encode_response (Message.Error ("protocol error: " ^ msg)))
  | exception e ->
    enqueue_response t client (Message.encode_response (Message.Error (Printexc.to_string e)))
  | req -> (
    (* per-kind RPC tally; pequod's whole evaluation counts messages *)
    if !Obs.enabled then
      Obs.Counter.incr (Obs.counter (Server.obs t.engine) ("rpc." ^ Message.request_kind req));
    let slot = ref None and now = ref None in
    let reply resp =
      match !slot with Some s -> fill_slot t client s resp | None -> now := Some resp
    in
    (try dispatch t client req reply
     with e -> if !now = None then now := Some (Message.Error (Printexc.to_string e)));
    match !now with
    | Some resp -> enqueue_response t client (Message.encode_response resp)
    | None ->
      if not (Message.is_oneway req) then begin
        let s = { sl_wire = None } in
        Queue.add s client.pending;
        slot := Some s
      end)

let handle_readable t client =
  match Unix.read client.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> drop t client
  | n -> (
    Obs.Counter.add t.m_bytes_in n;
    (* all responses for one read are accumulated in the client's
       output buffer and flushed once: a pipelined batch (e.g. the
       CLI's --load chunks) costs one syscall out, not one per frame *)
    match Frame.feed_bytes client.decoder t.rbuf 0 n ~frame:(handle_frame t client) with
    | () ->
      if Outbuf.length client.out > 0 then flush_output t client;
      (* after the whole batch: one coalesced push per subscriber, and
         one burst per peer for whatever the batch sent out *)
      flush_notifications t;
      Peers.push t.tx
    | exception Frame.Frame_too_large _ -> drop t client)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t client

let register t fd ~injected =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let client =
    { fd; peer = peer_name fd; decoder = Frame.decoder (); out = Outbuf.create ();
      want_write = false; injected; pending = Queue.create (); alive = true }
  in
  Log.info (fun m -> m "client %s connected%s" client.peer
      (if injected then " (via acceptor)" else ""));
  Hashtbl.replace t.conns fd client;
  Obs.Gauge.set t.m_conns (Hashtbl.length t.conns);
  Poller.set t.poller fd ~read:true ~write:false

let accept_clients t =
  let rec go () =
    match Unix.accept t.listener with
    | fd, _ ->
      register t fd ~injected:false;
      go ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Cross-domain entry points                                           *)

let wake t =
  try ignore (Unix.write_substring t.wakeup_w "x" 0 1)
  with Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EPIPE | Unix.EBADF), _, _) ->
    ()

(** Hand an accepted connection to this server's loop (thread-safe; the
    shard acceptor domain calls this). The loop adopts the fd on its
    next step. *)
let inject t fd =
  Mutex.lock t.inj_mu;
  Queue.add fd t.inj_q;
  Mutex.unlock t.inj_mu;
  wake t

(** Ask the loop to exit (thread-safe): {!run} returns after the current
    step. Resource teardown stays with the owning domain ({!stop}). *)
let request_stop t =
  Atomic.set t.shutdown true;
  wake t

let drain_wakeup t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wakeup_r b 0 (Bytes.length b) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  go ()

let drain_injected t =
  Mutex.lock t.inj_mu;
  Obs.Gauge.set t.m_queue_depth (Queue.length t.inj_q);
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] t.inj_q in
  Queue.clear t.inj_q;
  Mutex.unlock t.inj_mu;
  List.iter (fun fd -> register t fd ~injected:true) (List.rev fds)

(* ------------------------------------------------------------------ *)
(* Migration pump: drives at most one live range handoff, one bounded
   batch of work per event-loop step, so the source keeps serving
   while the copy runs. Every exchange with the destination and the
   seed is a transport call whose callback moves the handoff on.      *)

let finish_migration t mg resp =
  t.pl.pl_mig <- None;
  (match resp with
  | Message.Error msg ->
    Log.err (fun m ->
        m
          "migration of %s[%s,%s) to %s failed after %d keys: %s (directory unchanged; \
           re-run the migration)"
          mg.mg_table mg.mg_lo mg.mg_hi mg.mg_dest mg.mg_keys msg)
  | _ ->
    Log.app (fun m ->
        m "migration of %s[%s,%s) to %s complete: %d keys, %d delta writes" mg.mg_table
          mg.mg_lo mg.mg_hi mg.mg_dest mg.mg_keys mg.mg_deltas));
  (* the held writes run again, in arrival order: forwarded to the new
     home after a flip, applied here after a failure *)
  List.iter (fun (client, req, k) -> dispatch t client req k) (List.rev mg.mg_held);
  mg.mg_held <- [];
  mg.mg_reply resp

(* one call of the handoff; any failure ends the migration with the
   directory unchanged *)
let mig_call t mg addr req k =
  Peers.call t.tx ~timeout:Peers.migrate_timeout addr req (function
    | Ok (Message.Error msg) -> finish_migration t mg (Message.Error msg)
    | Ok resp -> k resp
    | Error msg -> finish_migration t mg (Message.Error msg))

(* any locally-handled call: its response proves every frame posted
   before it on this connection has been applied (frames are processed
   in order per connection). Dir_get is answered from the destination's
   own directory copy and never forwarded — a [Get] for a key in the
   moving range would bounce straight back here, because the
   destination still routes the range to this server until the epoch
   flips. *)
let mig_barrier t mg k =
  mg.mg_waiting <- true;
  mig_call t mg mg.mg_dest Message.Dir_get (fun _ ->
      mg.mg_waiting <- false;
      k ())

(* feed [items] ((key, Some v | None) in write order) to the destination
   as posted Notify_batch frames. Notify — not Put — so the receiver
   applies them locally instead of re-forwarding through its own
   directory (which still names this server as the range's home until
   the flip). *)
let mig_feed t mg items =
  let rec chunks = function
    | [] -> ()
    | items ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let batch, rest = take 1024 [] items in
      Peers.post t.tx mg.mg_dest (Message.Notify_batch { items = batch; stamps = [] });
      chunks rest
  in
  chunks items

(* The copy is done: seal the range, replay the delta, flip the
   directory epoch, hand over subscribers, and release local ownership.
   From the seal on, writes to the range wait in their response slots
   (see [hold_sealed]); everything else is served throughout. *)
let complete_migration t mg =
  let pl = t.pl in
  let { mg_table = table; mg_lo = lo; mg_hi = hi; mg_dest = dest; _ } = mg in
  mg.mg_sealed <- true;
  (* 1. replay the write delta captured during the copy; sealed, the
     range takes no further writes *)
  let items = List.rev mg.mg_delta in
  mg.mg_delta <- [];
  mg.mg_deltas <- mg.mg_deltas + List.length items;
  Obs.Counter.add t.m_delta (List.length items);
  mig_feed t mg items;
  (* hand the range's version stamps over before the flip: the new
     home's counter must continue where this one stops, or a session's
     acked stamp could exceed anything the new home ever issues *)
  let stamp_trailer =
    List.filter_map
      (fun (tb, slo, shi, s) ->
        if String.equal tb table && String.compare slo hi < 0 && String.compare lo shi < 0
        then
          Some
            ( tb,
              (if String.compare slo lo < 0 then lo else slo),
              (if String.compare hi shi < 0 then hi else shi),
              s )
        else None)
      (Server.stamp_ranges t.engine)
  in
  if stamp_trailer <> [] then
    Peers.post t.tx dest (Message.Notify_batch { items = []; stamps = stamp_trailer });
  let assign entries =
    match Directory.assign entries ~table ~lo ~hi ~home:dest with
    | Ok e -> Some e
    | Error msg ->
      finish_migration t mg (Message.Error msg);
      None
  in
  (* 3. once our own copy flipped: tell the new home directly (its poll
     would learn the flip anyway; this closes the window where it still
     routes the range back to us), and hand our subscribers over on the
     same connection — the new home installs each one through the
     ordinary Fetch path, naming the subscriber's own callback address,
     so pushes keep flowing without waiting for a Sub_check heal round.
     The sealed writes go out once the new home answered. *)
  let handoff epoch' entries' =
    (match Directory.install pl.pl_dir ~epoch:epoch' ~entries:entries' with
    | Ok () -> Obs.Gauge.set t.m_epoch epoch'
    | Error _ -> ());
    Peers.call t.tx ~timeout:Peers.migrate_timeout dest
      (Message.Dir_update { epoch = epoch'; entries = entries' })
      (fun _ ->
        (* 4. this server no longer owns the range; its own resolver (on
           the flipped routes) now fetches it from the new home *)
        Server.unmark_present t.engine ~table ~lo ~hi;
        finish_migration t mg
          (Message.Pairs
             [ ("keys_moved", string_of_int mg.mg_keys);
               ("delta_replayed", string_of_int mg.mg_deltas);
               ("epoch", string_of_int epoch') ]));
    match Hashtbl.find_opt t.subs table with
    | None -> ()
    | Some im ->
      let handles = ref [] in
      Interval_map.iter_overlapping im ~lo ~hi (fun h -> handles := h :: !handles);
      List.iter
        (fun h ->
          let slo, shi = Interval_map.handle_range h in
          let addr = Interval_map.handle_data h in
          if not (String.equal addr dest) then begin
            let clo = if String.compare lo slo < 0 then slo else lo in
            let chi = if String.compare shi hi < 0 then shi else hi in
            Peers.call t.tx ~timeout:Peers.migrate_timeout dest
              (Message.Fetch { table; lo = clo; hi = chi; subscriber = addr })
              ignore
          end;
          (* entries fully inside the moved range are dropped (their
             subscriber hears from the new home now); a straddling entry
             keeps serving its unmoved part — its moved part can never
             fire again, because writes there no longer apply locally *)
          if String.compare lo slo <= 0 && String.compare shi hi <= 0 then
            Interval_map.remove im h)
        !handles
  in
  (* 2. flip the directory epoch, once the destination holds the whole
     range: a migration killed at any earlier point leaves the epoch —
     and reads — exactly where they were *)
  mig_barrier t mg (fun () ->
      match pl.pl_seed with
      | None ->
        Option.iter
          (fun entries' -> handoff (Directory.epoch pl.pl_dir + 1) entries')
          (assign (Directory.entries pl.pl_dir))
      | Some seed ->
        mig_call t mg seed Message.Dir_get (function
          | Message.Dir_state { epoch; entries } ->
            Option.iter
              (fun entries' ->
                let epoch' = epoch + 1 in
                mig_call t mg seed (Message.Dir_update { epoch = epoch'; entries = entries' })
                  (fun _ -> handoff epoch' entries'))
              (assign entries)
          | _ -> finish_migration t mg (Message.Error "seed: unexpected Dir_get response")))

let mig_chunk = 512 (* keys per posted snapshot batch *)
let mig_chunks_per_step = 64

(* one step's worth of copying: up to [mig_chunks_per_step] chunks
   posted to the destination, then a barrier call; the next batch waits
   for its answer *)
let pump_migration t =
  match t.pl.pl_mig with
  | Some mg when not (mg.mg_waiting || mg.mg_sealed) -> (
    let rec copy budget =
      if budget = 0 then `More
      else
        match Server.scan_result ~limit:mig_chunk t.engine ~lo:mg.mg_cursor ~hi:mg.mg_hi with
        | `Missing _ -> `Fail
        | `Ok pairs ->
          let n = List.length pairs in
          if n > 0 then begin
            mig_feed t mg (List.map (fun (k, v) -> (k, Some v)) pairs);
            mg.mg_keys <- mg.mg_keys + n;
            Obs.Counter.add t.m_keys n
          end;
          if n = mig_chunk then begin
            mg.mg_cursor <- fst (List.nth pairs (n - 1)) ^ "\x00";
            copy (budget - 1)
          end
          else `Done
    in
    match copy mig_chunks_per_step with
    | `Fail -> finish_migration t mg (Message.Error "this server does not hold the range")
    | `More -> mig_barrier t mg ignore
    | `Done -> complete_migration t mg)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* One metrics snapshot as a single JSON line on stdout, timestamped so
   dump streams can be correlated with external logs. *)
let dump_metrics t =
  let now = Unix.gettimeofday () in
  let extra = [ ("ts", Printf.sprintf "%.3f" now) ] in
  print_endline (Obs.json_of_snapshot ~extra (Server.metrics_snapshot t.engine));
  flush stdout

let maybe_dump_metrics t =
  match t.metrics_every with
  | None -> ()
  | Some every ->
    let now = Unix.gettimeofday () in
    if now >= t.next_dump then begin
      t.next_dump <- now +. every;
      dump_metrics t
    end

(** One iteration of the event loop: wait up to [timeout] seconds for
    readiness, accept/read/write whatever is ready, then run the
    housekeeping (injected connections, the migration pump, parked
    stamped reads, persistence, tickers, pushes, and the transport's
    deadlines). Never re-entered and never blocked on a peer: a
    blocking {!Net_client} call made during a step raises
    [Invalid_argument]. *)
let step ?(timeout = 1.0) t =
  Peers.run_step @@ fun () ->
  let timeout =
    (* work that must not wait for I/O: a migration with copying to do,
       transport completions due, parked stamped reads (their
       refetch/deadline clocks tick even when no frame arrives) *)
    match t.pl.pl_mig with
    | Some mg when not (mg.mg_waiting || mg.mg_sealed) -> 0.0
    | _ ->
      if Peers.urgent t.tx then 0.0
      else if t.stamp_waits <> [] then Float.min timeout 0.002
      else timeout
  in
  let events = Poller.wait t.poller ~timeout in
  List.iter
    (fun (fd, readable, writable) ->
      if fd = t.wakeup_r then (if readable then drain_wakeup t)
      else if fd = t.listener then (if readable then accept_clients t)
      else
        match Hashtbl.find_opt t.conns fd with
        | None ->
          (* a transport socket: completions may send the next wave of
             fetches, which leave at once *)
          Peers.ready t.tx fd ~readable ~writable;
          Peers.push t.tx
        | Some client ->
          if writable then flush_output t client;
          (* [client] may have been dropped by the flush above *)
          if readable && client.alive then handle_readable t client)
    events;
  drain_injected t;
  pump_migration t;
  pump_stamp_waits t;
  Option.iter Persist.tick t.persist;
  List.iter (fun f -> f ()) t.tickers;
  flush_notifications t;
  Peers.tick t.tx;
  maybe_dump_metrics t

(** Serve until {!stop} or {!request_stop}. *)
let run t =
  while not (Atomic.get t.shutdown) do
    step t
  done

(** Close the listener, every client connection, and (after a final log
    sync) the durability manager. Must be called from the owning domain
    (after {!request_stop} + join when the loop runs elsewhere). *)
let stop t =
  Atomic.set t.shutdown true;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  Peers.close t.tx;
  Option.iter Persist.close t.persist;
  Poller.close t.poller;
  (try Unix.close t.wakeup_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wakeup_w with Unix.Unix_error _ -> ());
  Mutex.lock t.inj_mu;
  Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.inj_q;
  Queue.clear t.inj_q;
  Mutex.unlock t.inj_mu;
  try Unix.close t.listener with Unix.Unix_error _ -> ()
