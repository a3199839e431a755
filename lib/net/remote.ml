(* Wires Net_client into a cache engine as its missing-range resolver:
   the compute-server half of the §2.4 fetch/subscribe protocol, planned
   against the server's placement (directory.mli). *)

module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Joinspec = Pequod_pattern.Joinspec

let src = Logs.Src.create "pequod.remote"

module Log = (val Logs.src_log src : Logs.LOG)

(* peer clients, one per owning address, created lazily and registered
   in the engine's own metrics registry ([net.client.retries] etc.) *)
let client_cache ?config ?on_wait obs =
  let cache : (string, Net_client.t) Hashtbl.t = Hashtbl.create 4 in
  fun addr ->
    match Hashtbl.find_opt cache addr with
    | Some c -> c
    | None ->
      let chost, cport = Net_server.split_addr addr in
      let c = Net_client.create ~obs ?config ?on_wait ~host:chost ~port:cport () in
      Hashtbl.add cache addr c;
      c

(* One blocking fetch+subscribe exchange: the §2.4 [Fetch] naming this
   server as the subscriber, answered by a [Subscribed] snapshot. On
   success the granted subscription is recorded in [tracked] (keyed by
   the exact clamp, valued by the granting server) for the healing
   heartbeat to audit. The blocking resolver, replica warming and the
   heal without an asynchronous host share it, so the protocol exchange
   lives exactly once. *)
let fetch_one ~engine ~client_for ~tracked ~m_fetch_out ~self_addr ~table ~lo ~hi addr =
  Obs.Counter.incr m_fetch_out;
  match
    Net_client.call (client_for addr)
      (Message.Fetch { table; lo; hi; subscriber = self_addr })
  with
  | Message.Subscribed { stamp; pairs } ->
    Hashtbl.replace tracked (table, lo, hi) addr;
    (* record the snapshot's version: stamped reads compare their demand
       against it. Every feed path must go through this — the replica
       warming path used to skip it, leaving a warmed replica unable to
       detect (and heal) its own staleness under a stamped read. *)
    if stamp > 0 then Server.set_range_stamp engine ~table ~lo ~hi stamp;
    Some pairs
  | Message.Error msg ->
    Log.warn (fun m -> m "fetch %s[%s,%s) from %s refused: %s" table lo hi addr msg);
    None
  | _ ->
    Log.warn (fun m -> m "fetch %s[%s,%s) from %s: unexpected response" table lo hi addr);
    None
  | exception Net_client.Net_error msg ->
    Log.warn (fun m -> m "fetch %s[%s,%s) from %s failed: %s" table lo hi addr msg);
    None

let plan dir ~self ~table ~lo ~hi =
  match Directory.governing dir ~table with
  | [] -> `Unrouted
  | _ ->
    let pieces = Directory.pieces dir ~table ~lo ~hi in
    if List.exists (fun (e, _, _) -> e = None) pieces then `Gap
    else
      `Fetch
        (List.filter_map
           (function
             | Some (e : Directory.entry), flo, fhi
               when not (String.equal e.Message.de_home self) ->
               Some (e, flo, fhi)
             | _ -> None)
           pieces)

(* The asynchronous fetch engine behind [Net_server]'s parked scans.

   Where the blocking resolver holds the event loop hostage for one
   round-trip per missing range, the fetcher owns its own nonblocking
   peer sockets, driven by the serving loop itself
   ([Net_server.watch_fd]): a parked scan's whole missing-range set is
   planned into per-home clamps and written as one pipelined burst per
   peer, concurrently across peers. Responses are matched to fetches in
   per-connection pipeline order (the wire has no request ids), fed
   into the engine, and the scan retried once the full set has landed.
   A clamp carries its candidates — the range's replicas, then its home
   — and a refusal or a dead peer moves the fetch on to the next one.

   Single-flight: an in-flight table keyed by the exact (table, lo, hi)
   clamp means N concurrent parked scans missing the same range share
   one wire [Fetch] and one [feed_base]; the extra joins are counted in
   [fetch.coalesced]. No [Hello] is sent on fetcher sockets — the
   server answers frames without a handshake, and a [Welcome] would
   desynchronise the response-order matching. *)
module Fetcher = struct
  module Frame = Pequod_proto.Frame

  type waiter = {
    mutable w_remaining : int; (* clamps not yet landed *)
    mutable w_failed : bool;
    w_k : ok:bool -> unit;
  }

  type flight = {
    fl_key : string * string * string; (* table, clamp lo, clamp hi *)
    mutable fl_waiters : waiter list;
    mutable fl_cands : string list; (* candidates not yet tried, in order *)
  }

  type peer = {
    p_addr : string;
    mutable p_fd : Unix.file_descr option;
    mutable p_connecting : bool; (* nonblocking connect pending SO_ERROR *)
    mutable p_decoder : Frame.decoder;
    p_out : Buffer.t; (* encoded frames not yet written *)
    p_flights : flight Queue.t; (* responses match heads in order *)
    mutable p_down_until : float; (* reconnect backoff deadline *)
  }

  type t = {
    f_server : Net_server.t;
    f_engine : Server.t;
    f_self : string;
    (* missing range -> (table, clamp lo, clamp hi, candidates),
       re-planned at fetch time *)
    f_plan :
      table:string -> lo:string -> hi:string ->
      [ `Fail | `Nothing | `Clamps of (string * string * string * string list) list ];
    f_tracked : (string * string * string, string) Hashtbl.t;
    f_peers : (string, peer) Hashtbl.t;
    f_inflight : (string * string * string, flight) Hashtbl.t;
    f_buf : Bytes.t;
    m_fetch_out : Obs.Counter.t; (* peer.fetch.out *)
    m_coalesced : Obs.Counter.t; (* fetch.coalesced *)
    m_inflight : Obs.Gauge.t; (* fetch.inflight *)
  }

  let create ~server ~engine ~self_addr ~plan ~tracked =
    let obs = Server.obs engine in
    { f_server = server;
      f_engine = engine;
      f_self = self_addr;
      f_plan = plan;
      f_tracked = tracked;
      f_peers = Hashtbl.create 4;
      f_inflight = Hashtbl.create 16;
      f_buf = Bytes.create 65_536;
      m_fetch_out = Obs.counter obs "peer.fetch.out";
      m_coalesced = Obs.counter obs "fetch.coalesced";
      m_inflight = Obs.gauge obs "fetch.inflight" }

  let peer_of f addr =
    match Hashtbl.find_opt f.f_peers addr with
    | Some p -> p
    | None ->
      let p =
        { p_addr = addr; p_fd = None; p_connecting = false;
          p_decoder = Frame.decoder (); p_out = Buffer.create 256;
          p_flights = Queue.create (); p_down_until = neg_infinity }
      in
      Hashtbl.add f.f_peers addr p;
      p

  let complete_waiter w ~ok =
    if not ok then w.w_failed <- true;
    w.w_remaining <- w.w_remaining - 1;
    if w.w_remaining = 0 then w.w_k ~ok:(not w.w_failed)

  (* The flight leaves the in-flight table before its waiters run: a
     waiter's retry may miss the same range again (eviction raced the
     feed) and must start a fresh fetch, not join a completed one. *)
  let complete_flight f fl ~ok =
    Hashtbl.remove f.f_inflight fl.fl_key;
    Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
    let ws = fl.fl_waiters in
    fl.fl_waiters <- [];
    List.iter (fun w -> complete_waiter w ~ok) ws

  (* Queue [fl] on its next candidate not sitting out a backoff (the
     replica-then-home fallthrough); the peer to flush, or [None] once
     every candidate is spent and the flight has failed. *)
  let rec issue f fl =
    match fl.fl_cands with
    | [] ->
      complete_flight f fl ~ok:false;
      None
    | addr :: rest ->
      fl.fl_cands <- rest;
      let peer = peer_of f addr in
      if peer.p_fd = None && Unix.gettimeofday () < peer.p_down_until then issue f fl
      else begin
        Obs.Counter.incr f.m_fetch_out;
        Queue.add fl peer.p_flights;
        let table, lo, hi = fl.fl_key in
        Buffer.add_string peer.p_out
          (Net_client.encode_request_frame
             (Message.Fetch { table; lo; hi; subscriber = f.f_self }));
        Some peer
      end

  let rec write_some fd data pos len =
    if pos >= len then pos
    else
      match Unix.write_substring fd data pos (len - pos) with
      | n -> write_some fd data (pos + n) len
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some fd data pos len
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> pos

  let sockaddr_of addr =
    let host, port = Net_server.split_addr addr in
    let inet =
      match Unix.inet_addr_of_string host with
      | a -> a
      | exception _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
        | addrs -> addrs.(0)
        | exception Not_found ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))
    in
    Unix.ADDR_INET (inet, port)

  (* Tear a peer connection down: every fetch still in its pipeline
     moves on to its next candidate, or fails (their parked scans answer
     Error and the client may retry), and the peer sits out a short
     backoff so a dead home is one failed [connect] per half second, not
     per scan. *)
  let rec fail_peer f peer msg =
    if not (Queue.is_empty peer.p_flights) then
      Log.warn (fun m ->
          m "peer %s: %s; %d in-flight fetches move on" peer.p_addr msg
            (Queue.length peer.p_flights));
    (match peer.p_fd with
    | Some fd ->
      peer.p_fd <- None;
      Net_server.unwatch_fd f.f_server fd;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    peer.p_connecting <- false;
    peer.p_decoder <- Frame.decoder ();
    Buffer.clear peer.p_out;
    peer.p_down_until <- Unix.gettimeofday () +. 0.5;
    let flights = List.of_seq (Queue.to_seq peer.p_flights) in
    Queue.clear peer.p_flights;
    List.iter (retry f) flights

  and retry f fl =
    match issue f fl with
    | Some peer ->
      ensure_connected f peer;
      flush_peer f peer
    | None -> ()

  (* Nonblocking flush; write interest stays on exactly while bytes
     remain buffered (a level-triggered poller would spin otherwise). *)
  and flush_peer f peer =
    match peer.p_fd with
    | None -> ()
    | Some _ when peer.p_connecting -> ()
    | Some fd -> (
      let data = Buffer.contents peer.p_out in
      Buffer.clear peer.p_out;
      let len = String.length data in
      match write_some fd data 0 len with
      | pos ->
        if pos < len then begin
          Buffer.add_substring peer.p_out data pos (len - pos);
          Net_server.watch_interest f.f_server fd ~read:true ~write:true
        end
        else Net_server.watch_interest f.f_server fd ~read:true ~write:false
      | exception Unix.Unix_error (err, _, _) ->
        fail_peer f peer ("write: " ^ Unix.error_message err))

  (* one response frame = the head of this peer's pipeline *)
  and handle_frame f peer frame =
    match Queue.take_opt peer.p_flights with
    | None -> fail_peer f peer "unexpected frame with no fetch in flight"
    | Some fl -> (
      let table, lo, hi = fl.fl_key in
      let refused why =
        Log.warn (fun m -> m "fetch %s[%s,%s) from %s: %s" table lo hi peer.p_addr why);
        retry f fl
      in
      match Message.decode_response frame with
      | Message.Subscribed { stamp; pairs } ->
        Hashtbl.replace f.f_tracked fl.fl_key peer.p_addr;
        Server.feed_base f.f_engine ~table ~lo ~hi pairs;
        if stamp > 0 then Server.set_range_stamp f.f_engine ~table ~lo ~hi stamp;
        complete_flight f fl ~ok:true
      | Message.Error msg -> refused ("refused: " ^ msg)
      | _ -> refused "unexpected response"
      | exception Message.Protocol_error msg -> refused ("protocol error: " ^ msg))

  and read_peer f peer fd =
    match Unix.read fd f.f_buf 0 (Bytes.length f.f_buf) with
    | 0 -> fail_peer f peer "connection closed"
    | n ->
      List.iter
        (fun frame ->
          (* a completion may tear this peer down re-entrantly (its own
             parked-scan retry failing it); later frames are then stale *)
          if peer.p_fd = Some fd then handle_frame f peer frame)
        (Frame.feed peer.p_decoder (Bytes.sub_string f.f_buf 0 n))
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (err, _, _) ->
      fail_peer f peer ("read: " ^ Unix.error_message err)

  and peer_ready f peer fd ~readable ~writable =
    if peer.p_fd = Some fd then begin
      if writable then
        if peer.p_connecting then (
          match Unix.getsockopt_error fd with
          | Some err -> fail_peer f peer ("connect: " ^ Unix.error_message err)
          | None ->
            peer.p_connecting <- false;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            flush_peer f peer)
        else flush_peer f peer;
      if readable && peer.p_fd = Some fd then read_peer f peer fd
    end

  and ensure_connected f peer =
    if peer.p_fd = None then begin
      match
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.set_nonblock fd
         with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
        (fd, (try Unix.connect fd (sockaddr_of peer.p_addr); `Done with
              | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> `Pending
              | e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e))
      with
      | fd, how ->
        if how = `Done then
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        peer.p_fd <- Some fd;
        peer.p_connecting <- how = `Pending;
        peer.p_decoder <- Frame.decoder ();
        (* while connecting, write-ready signals the outcome (SO_ERROR) *)
        Net_server.watch_fd f.f_server fd ~read:true ~write:peer.p_connecting
          ~on_ready:(fun ~readable ~writable -> peer_ready f peer fd ~readable ~writable)
      | exception Unix.Unix_error (err, _, _) ->
        fail_peer f peer ("connect: " ^ Unix.error_message err)
    end

  (* The [Net_server.set_fetcher] entry point: issue one parked scan's
     whole missing-range set, calling [k ~ok] once every clamp has
     landed (or any failed). Completion may run synchronously — every
     candidate of a clamp down — or later from [peer_ready]; the caller
     handles both. *)
  let request f ranges k =
    let planned =
      List.fold_left
        (fun acc (table, lo, hi) ->
          match acc with
          | `Fail -> `Fail
          | `Ok clamps -> (
            match f.f_plan ~table ~lo ~hi with
            | `Fail -> `Fail
            | `Nothing ->
              (* the placement moved under the scan (directory epoch):
                 nothing to fetch; the retry re-plans *)
              `Ok clamps
            | `Clamps cs -> `Ok (List.rev_append cs clamps)))
        (`Ok []) ranges
    in
    match planned with
    | `Fail -> k ~ok:false
    | `Ok [] -> k ~ok:true
    | `Ok clamps ->
      let waiter = { w_remaining = List.length clamps; w_failed = false; w_k = k } in
      let touched = ref [] in
      List.iter
        (fun (table, flo, fhi, cands) ->
          let key = (table, flo, fhi) in
          match Hashtbl.find_opt f.f_inflight key with
          | Some fl ->
            (* single-flight: share the wire fetch already under way *)
            Obs.Counter.incr f.m_coalesced;
            fl.fl_waiters <- waiter :: fl.fl_waiters
          | None -> (
            let fl = { fl_key = key; fl_waiters = [ waiter ]; fl_cands = cands } in
            Hashtbl.replace f.f_inflight key fl;
            Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
            match issue f fl with
            | Some peer -> if not (List.memq peer !touched) then touched := peer :: !touched
            | None -> ()))
        clamps;
      (* one burst per touched peer: connect if needed, then push the
         whole pipeline out in as few writes as the socket allows *)
      List.iter
        (fun peer ->
          ensure_connected f peer;
          flush_peer f peer)
        (List.rev !touched)
end

(* ------------------------------------------------------------------ *)
(* The single configuration surface: one record, one attach.           *)

module Config = struct
  type t = {
    engine : Server.t;
    self_addr : string;
    dir : Directory.t;
    seed : string option;
    poll_every : float;
    server : Net_server.t option;
    check_every : float;
    on_wait : (unit -> unit) option;
  }

  let make ?(check_every = 2.0) ?(poll_every = 1.0) ?seed ?on_wait ?server ~engine ~self_addr
      dir =
    { engine; self_addr; dir; seed; poll_every; server; check_every; on_wait }
end

let attach (cfg : Config.t) =
  let { Config.engine; self_addr = self; dir; _ } = cfg in
  (* ranges homed here, marked present; wildcard slices cannot be
     (no concrete table): they resolve [`Fetch []] -> Local instead *)
  let owned () =
    List.filter_map
      (fun (e : Directory.entry) ->
        if String.equal e.Message.de_home self && not (Directory.is_wildcard e) then
          Some (e.Message.de_table, e.Message.de_lo, e.Message.de_hi)
        else None)
      (Directory.entries dir)
  in
  if
    Directory.pinned dir
    && List.for_all
         (fun (e : Directory.entry) -> String.equal e.Message.de_home self)
         (Directory.entries dir)
  then begin
    (* nothing is homed elsewhere: no resolver, no fetcher, no tick *)
    List.iter (fun (table, lo, hi) -> Server.mark_present engine ~table ~lo ~hi) (owned ());
    fun () -> ()
  end
  else begin
    let obs = Server.obs engine in
    let client_for = client_cache ?on_wait:cfg.Config.on_wait obs in
    let m_fetch_out = Obs.counter obs "peer.fetch.out" in
    let m_sub_lost = Obs.counter obs "peer.sub.lost" in
    let m_epoch = Obs.gauge obs "dir.epoch" in
    (* live subscriptions this server believes it holds: exactly the
       (table, clamp) ranges whose Fetch was granted, keyed to the server
       that granted them. The healing heartbeat audits this against that
       server's own Sub_check answer. *)
    let tracked : (string * string * string, string) Hashtbl.t = Hashtbl.create 16 in
    let fetch_one = fetch_one ~engine ~client_for ~tracked ~m_fetch_out ~self_addr:self in
    let is_sink table =
      List.exists
        (fun spec -> String.equal (Joinspec.output_table spec) table)
        (Server.joins engine)
    in
    (* A missing [lo, hi) of [table] against the current placement.
       Join outputs are never fetched: every server recomputes them from
       (fetched, subscription-fresh) sources, and a fetched copy would
       freeze — join-derived writes are not client-origin and are never
       pushed. *)
    let clamps ~table ~lo ~hi =
      if Directory.epoch dir = 0 then `Wait
      else if is_sink table then `Local
      else
        match plan dir ~self ~table ~lo ~hi with
        | `Unrouted | `Fetch [] -> `Local
        | `Gap -> `Gap
        | `Fetch cs ->
          `Fetch
            (List.map
               (fun (e, flo, fhi) -> (table, flo, fhi, Directory.candidates e ~self))
               cs)
    in
    (* asynchronous read path: the fetch engine on the serving loop *)
    let fetcher =
      Option.map
        (fun server ->
          let f =
            Fetcher.create ~server ~engine ~self_addr:self ~tracked
              ~plan:(fun ~table ~lo ~hi ->
                match clamps ~table ~lo ~hi with
                | `Local -> `Nothing
                | `Wait | `Gap -> `Fail
                | `Fetch cs -> `Clamps cs)
          in
          Net_server.set_fetcher server (Fetcher.request f);
          f)
        cfg.Config.server
    in
    Server.set_resolver engine (fun ~table ~lo ~hi ->
        match clamps ~table ~lo ~hi with
        | `Local -> Server.Local
        | `Wait ->
          (* no directory yet: resolving [Local] here would mark the
             range present and freeze it empty; defer until an epoch *)
          Server.Deferred
        | `Gap ->
          (* surface the misconfiguration instead of serving the gap as
             present-and-empty: the scan reports the range missing *)
          Log.warn (fun m ->
              m "the placement leaves a gap inside %s[%s,%s); check the partition specs"
                table lo hi);
          Server.Deferred
        | `Fetch _ when Option.is_some fetcher && Server.collecting engine ->
          (* collect-mode scan under an asynchronous host: report the
             miss and keep collecting; the host parks the scan and the
             fetcher issues the whole missing set as one burst *)
          Server.Deferred
        | `Fetch cs ->
          (* blocking path (no async host, or a caller with no retry
             loop above it — an updater firing inside a feed_base, a
             bare scan/get): fetch each clamp inline, falling through its
             candidates; all must answer for the range to resolve *)
          let rec fetch acc = function
            | [] -> Server.Resolved (List.concat (List.rev acc))
            | (table, flo, fhi, cands) :: rest -> (
              match List.find_map (fetch_one ~table ~lo:flo ~hi:fhi) cands with
              | Some pairs -> fetch (pairs :: acc) rest
              | None -> Server.Deferred)
          in
          fetch [] cs);
    (* replica duty waiting to be established: (table, lo, hi, home)
       ranges this server replicates but has not fetch+subscribed yet,
       retried every second until the home answers *)
    let warm_pending = ref [] in
    let warm_replicas () =
      warm_pending :=
        List.filter
          (fun (table, lo, hi, home) ->
            match fetch_one ~table ~lo ~hi home with
            | Some pairs ->
              Server.feed_base engine ~table ~lo ~hi pairs;
              Log.info (fun m -> m "replicating %s[%s,%s) from %s" table lo hi home);
              false
            | None -> true)
          !warm_pending
    in
    (* bring this server in line with the placement's current version:
       adjust owned presence, drop subscriptions whose granting server
       the new version no longer names for the range, and warm any range
       this server now serves as a replica *)
    let applied = ref 0 in
    let marked = ref [] in
    let apply () =
      let now_owned = owned () in
      List.iter
        (fun ((table, lo, hi) as k) ->
          if not (List.mem k !marked) then Server.mark_present engine ~table ~lo ~hi)
        now_owned;
      List.iter
        (fun ((table, lo, hi) as k) ->
          if not (List.mem k now_owned) then Server.unmark_present engine ~table ~lo ~hi)
        !marked;
      marked := now_owned;
      applied := Directory.epoch dir;
      Obs.Gauge.set m_epoch !applied;
      Log.info (fun m ->
          m "placement epoch %d applied: %d entries, %d owned" !applied
            (List.length (Directory.entries dir)) (List.length now_owned));
      let stale =
        Hashtbl.fold
          (fun ((table, lo, hi) as key) addr acc ->
            match plan dir ~self ~table ~lo ~hi with
            | `Fetch cs
              when List.exists
                     (fun ((e : Directory.entry), _, _) ->
                       String.equal e.Message.de_home addr
                       || List.mem addr e.Message.de_replicas)
                     cs ->
              acc
            | _ -> key :: acc)
          tracked []
      in
      List.iter
        (fun ((table, lo, hi) as key) ->
          Hashtbl.remove tracked key;
          (* the data moved out from under the subscription: forget the
             presence; the next scan refetches from the current home *)
          Server.unmark_present engine ~table ~lo ~hi)
        stale;
      (* replica duty: a direct fetch+subscribe from the home feeds the
         copy in (base-table scans never resolve on their own) *)
      warm_pending :=
        List.filter_map
          (fun (e : Directory.entry) ->
            let key = (e.Message.de_table, e.Message.de_lo, e.Message.de_hi) in
            if List.mem self e.Message.de_replicas && not (Hashtbl.mem tracked key) then
              Some (e.Message.de_table, e.Message.de_lo, e.Message.de_hi, e.Message.de_home)
            else None)
          (Directory.entries dir);
      warm_replicas ()
    in
    if Directory.epoch dir > 0 then apply ();
    (* follower poll: a dedicated short-fuse client, so a dead seed costs
       the tick half a second, not the full fetch retry budget *)
    let poll =
      match cfg.Config.seed with
      | None -> fun _ -> () (* the seed, or pinned: nothing to poll *)
      | Some seed_addr ->
        let m_dir_fetch = Obs.counter obs "dir.fetch" in
        let poll_client =
          client_cache
            ~config:
              { Net_client.connect_timeout = 0.5; call_timeout = 2.0; max_retries = 0;
                backoff = 0.05 }
            ?on_wait:cfg.Config.on_wait obs seed_addr
        in
        let last_poll = ref neg_infinity in
        fun now ->
          if now -. !last_poll >= cfg.Config.poll_every then begin
            last_poll := now;
            match
              Net_client.call poll_client (Message.Dir_watch { epoch = Directory.epoch dir })
            with
            | Message.Dir_state { epoch; entries } ->
              Obs.Counter.incr m_dir_fetch;
              (* a migration flip pushed to this server can race the
                 poll: an answer at-or-below the installed epoch is just
                 old news *)
              if epoch > Directory.epoch dir then (
                match Directory.install dir ~epoch ~entries with
                | Ok () -> ()
                | Error msg ->
                  Log.warn (fun m -> m "directory update from seed rejected: %s" msg))
            | Message.Done -> Obs.Counter.incr m_dir_fetch (* unchanged *)
            | Message.Error msg ->
              Log.warn (fun m -> m "seed %s refused Dir_watch: %s" seed_addr msg)
            | _ -> ()
            | exception Net_client.Net_error msg ->
              Log.debug (fun m -> m "directory seed %s unreachable: %s" seed_addr msg)
          end
    in
    (* A subscription the granting server no longer holds (a failed push
       while we were blocked or down, a restart) is refetched: the fresh
       snapshot goes through [feed_base], which reconciles the data and
       re-fires the updaters — join output computed from the frozen copy
       is repaired too — and the [Fetch] re-subscribes. Only a failed
       refetch (owner unreachable) un-marks the range, so the next scan
       goes back through the resolver. *)
    let refetch ((table, lo, hi) as key) addr =
      let unmark () = Server.unmark_present engine ~table ~lo ~hi in
      match fetcher with
      | Some f -> Fetcher.request f [ key ] (fun ~ok -> if not ok then unmark ())
      | None -> (
        match fetch_one ~table ~lo ~hi addr with
        | Some pairs -> Server.feed_base engine ~table ~lo ~hi pairs
        | None -> unmark ())
    in
    (* The healing heartbeat: every [check_every] seconds ask each
       granting server which of our subscriptions it still holds.
       Without it a dropped subscription would freeze the fetched copy
       forever with no error. *)
    let last_check = ref neg_infinity in
    let heal now =
      if Hashtbl.length tracked > 0 && now -. !last_check >= cfg.Config.check_every then begin
        last_check := now;
        let by_addr = Hashtbl.create 4 in
        Hashtbl.iter
          (fun key addr ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_addr addr) in
            Hashtbl.replace by_addr addr (key :: prev))
          tracked;
        Hashtbl.iter
          (fun addr keys ->
            match
              Net_client.call ~timeout:2.0 (client_for addr)
                (Message.Sub_check { subscriber = self })
            with
            | Message.Sub_ranges live ->
              (* hash the answer: a compute tracks one range per fetched
                 timeline piece, so [keys] and [live] both grow with the
                 working set and a List.mem join is quadratic *)
              let live_set = Hashtbl.create (1 + List.length live) in
              List.iter (fun k -> Hashtbl.replace live_set k ()) live;
              List.iter
                (fun ((table, lo, hi) as key) ->
                  if not (Hashtbl.mem live_set key) then begin
                    Obs.Counter.force_add m_sub_lost 1;
                    Log.warn (fun m ->
                        m "subscription %s[%s,%s) lost at %s; refetching" table lo hi addr);
                    Hashtbl.remove tracked key;
                    refetch key addr
                  end)
                keys
            | _ -> ()
            | exception Net_client.Net_error _ ->
              (* unreachable: scans surface it; the next heartbeat
                 retries once it returns *)
              ())
          by_addr
      end
    in
    let last_warm = ref neg_infinity in
    fun () ->
      let now = Unix.gettimeofday () in
      poll now;
      if Directory.epoch dir > !applied then apply ();
      if !warm_pending <> [] && now -. !last_warm >= 1.0 then begin
        last_warm := now;
        warm_replicas ()
      end;
      heal now
  end
