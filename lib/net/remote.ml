(* The compute-server half of the §2.4 fetch/subscribe protocol: a
   cache engine's missing-range resolver and fetch engine, planned
   against the server's placement (directory.mli), speaking through the
   serving loop's own transport (peers.mli). *)

module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Joinspec = Pequod_pattern.Joinspec

let src = Logs.Src.create "pequod.remote"

module Log = (val Logs.src_log src : Logs.LOG)

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

(* The fetch engine behind [Net_server]'s parked reads.

   A parked read's whole missing-range set is planned into per-home
   clamps and sent through the loop's transport, pipelined per peer and
   concurrent across peers. Each answer is fed into the engine, and the
   read retried once the full set has landed. A clamp carries its
   candidates — the range's replicas, then its home — and a refusal, a
   dead peer or an expired deadline moves the fetch on to the next one.
   When every candidate refused, the placement may have moved under the
   fetch (a migration flip this server's poll has not seen yet): the
   seed is polled at once, and if a newer epoch installs the waiters
   retry and re-plan against it; only an unmoved epoch fails them.

   Single-flight: an in-flight table keyed by the exact (table, lo, hi)
   clamp means N concurrent parked reads missing the same range share
   one wire [Fetch] and one [feed_base]; the extra joins are counted in
   [fetch.coalesced]. *)
module Fetcher = struct
  type waiter = {
    mutable w_remaining : int; (* clamps not yet landed *)
    mutable w_failed : bool;
    w_k : ok:bool -> unit;
  }

  type flight = {
    fl_key : string * string * string; (* table, clamp lo, clamp hi *)
    mutable fl_waiters : waiter list;
    mutable fl_cands : string list; (* candidates not yet tried, in order *)
    mutable fl_refused : bool; (* some candidate refused the range *)
  }

  type t = {
    f_tx : Peers.t;
    f_engine : Server.t;
    f_self : string;
    (* missing range -> (table, clamp lo, clamp hi, candidates),
       re-planned at fetch time *)
    f_plan :
      table:string -> lo:string -> hi:string ->
      [ `Fail | `Nothing | `Clamps of (string * string * string * string list) list ];
    (* poll the seed now; true when a newer epoch installed *)
    f_repoll : (bool -> unit) -> unit;
    f_tracked : (string * string * string, string) Hashtbl.t;
    f_inflight : (string * string * string, flight) Hashtbl.t;
    m_fetch_out : Obs.Counter.t; (* peer.fetch.out *)
    m_coalesced : Obs.Counter.t; (* fetch.coalesced *)
    m_inflight : Obs.Gauge.t; (* fetch.inflight *)
  }

  let create ~tx ~engine ~self_addr ~plan ~repoll ~tracked =
    let obs = Server.obs engine in
    { f_tx = tx;
      f_engine = engine;
      f_self = self_addr;
      f_plan = plan;
      f_repoll = repoll;
      f_tracked = tracked;
      f_inflight = Hashtbl.create 16;
      m_fetch_out = Obs.counter obs "peer.fetch.out";
      m_coalesced = Obs.counter obs "fetch.coalesced";
      m_inflight = Obs.gauge obs "fetch.inflight" }

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

  (* Send [fl] to its next candidate (the replica-then-home
     fallthrough); once every candidate is spent, fail it — or, if one
     refused, let the waiters re-plan when a re-poll moved the epoch. *)
  let rec issue f fl =
    match fl.fl_cands with
    | [] ->
      if fl.fl_refused then f.f_repoll (fun moved -> complete_flight f fl ~ok:moved)
      else complete_flight f fl ~ok:false
    | addr :: rest ->
      fl.fl_cands <- rest;
      Obs.Counter.incr f.m_fetch_out;
      let table, lo, hi = fl.fl_key in
      Peers.call f.f_tx ~timeout:Peers.fetch_timeout addr
        (Message.Fetch { table; lo; hi; subscriber = f.f_self })
        (fun reply ->
          let move_on why =
            Log.warn (fun m -> m "fetch %s[%s,%s) from %s: %s" table lo hi addr why);
            issue f fl
          in
          match reply with
          | Ok (Message.Subscribed { stamp; pairs }) ->
            Hashtbl.replace f.f_tracked fl.fl_key addr;
            Server.feed_base f.f_engine ~table ~lo ~hi pairs;
            (* record the snapshot's version: stamped reads compare
               their demand against it *)
            if stamp > 0 then Server.set_range_stamp f.f_engine ~table ~lo ~hi stamp;
            complete_flight f fl ~ok:true
          | Ok (Message.Error msg) ->
            fl.fl_refused <- true;
            move_on ("refused: " ^ msg)
          | Ok _ -> move_on "unexpected response"
          | Error msg -> move_on msg)

  (* fetch one clamp from [cands] on behalf of [waiter], joining the
     flight already under way for it *)
  let fetch f (table, lo, hi) cands waiter =
    let key = (table, lo, hi) in
    match Hashtbl.find_opt f.f_inflight key with
    | Some fl ->
      (* single-flight: share the wire fetch already under way *)
      Obs.Counter.incr f.m_coalesced;
      fl.fl_waiters <- waiter :: fl.fl_waiters
    | None ->
      let fl = { fl_key = key; fl_waiters = [ waiter ]; fl_cands = cands; fl_refused = false } in
      Hashtbl.replace f.f_inflight key fl;
      Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
      issue f fl

  let waiter n k = { w_remaining = n; w_failed = false; w_k = k }

  (* The [Net_server.set_fetcher] entry point: issue one parked read's
     whole missing-range set, calling [k ~ok] once every clamp has
     landed (or any failed). An unplannable set completes at once. *)
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
              (* the placement moved under the read (directory epoch):
                 nothing to fetch; the retry re-plans *)
              `Ok clamps
            | `Clamps cs -> `Ok (List.rev_append cs clamps)))
        (`Ok []) ranges
    in
    match planned with
    | `Fail -> k ~ok:false
    | `Ok [] -> k ~ok:true
    | `Ok clamps ->
      let w = waiter (List.length clamps) k in
      List.iter (fun (table, lo, hi, cands) -> fetch f (table, lo, hi) cands w) clamps
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
    server : Net_server.t;
    check_every : float;
  }

  let make ?(check_every = 2.0) ?(poll_every = 1.0) ?seed ~server ~engine ~self_addr dir =
    { engine; self_addr; dir; seed; poll_every; server; check_every }
end

let attach (cfg : Config.t) =
  let { Config.engine; self_addr = self; dir; server; _ } = cfg in
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
  then
    (* nothing is homed elsewhere: no resolver, no fetcher, no tick *)
    List.iter (fun (table, lo, hi) -> Server.mark_present engine ~table ~lo ~hi) (owned ())
  else begin
    let obs = Server.obs engine in
    let tx = Net_server.transport server in
    let m_sub_lost = Obs.counter obs "peer.sub.lost" in
    let m_epoch = Obs.gauge obs "dir.epoch" in
    (* live subscriptions this server believes it holds: exactly the
       (table, clamp) ranges whose Fetch was granted, keyed to the server
       that granted them. The healing heartbeat audits this against that
       server's own Sub_check answer. *)
    let tracked : (string * string * string, string) Hashtbl.t = Hashtbl.create 16 in
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
    (* replica duty waiting to be established: (table, lo, hi, home)
       ranges this server replicates but has not fetch+subscribed yet,
       retried every second until the home answers *)
    let warm_pending = ref [] in
    let fetcher = ref None in
    let warm_replicas () =
      Option.iter
        (fun f ->
          List.iter
            (fun ((table, lo, hi, home) as w) ->
              Fetcher.fetch f (table, lo, hi) [ home ]
                (Fetcher.waiter 1 (fun ~ok ->
                     if ok then begin
                       Log.info (fun m -> m "replicating %s[%s,%s) from %s" table lo hi home);
                       warm_pending := List.filter (fun w' -> w' <> w) !warm_pending
                     end)))
            !warm_pending)
        !fetcher
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
    let sync () = if Directory.epoch dir > !applied then apply () in
    (* Ask the seed for a newer directory ([Dir_watch]); [k] learns
       whether one installed. Concurrent asks share one call. A server
       with no seed (the seed itself, or a pinned placement) already
       holds the current version. *)
    let polling = ref None in
    let m_dir_fetch = Obs.counter obs "dir.fetch" in
    let repoll k =
      match (cfg.Config.seed, !polling) with
      | None, _ -> k false
      | Some _, Some ks -> polling := Some (k :: ks)
      | Some seed_addr, None ->
        polling := Some [ k ];
        let before = Directory.epoch dir in
        Peers.call tx ~timeout:Peers.heal_timeout seed_addr
          (Message.Dir_watch { epoch = before })
          (fun reply ->
            (match reply with
            | Ok (Message.Dir_state { epoch; entries }) ->
              Obs.Counter.incr m_dir_fetch;
              (* a migration flip pushed to this server can race the
                 poll: an answer at-or-below the installed epoch is just
                 old news *)
              if epoch > Directory.epoch dir then (
                match Directory.install dir ~epoch ~entries with
                | Ok () -> sync ()
                | Error msg ->
                  Log.warn (fun m -> m "directory update from seed rejected: %s" msg))
            | Ok Message.Done -> Obs.Counter.incr m_dir_fetch (* unchanged *)
            | Ok (Message.Error msg) ->
              Log.warn (fun m -> m "seed %s refused Dir_watch: %s" seed_addr msg)
            | Ok _ -> ()
            | Error msg ->
              Log.debug (fun m -> m "directory seed %s unreachable: %s" seed_addr msg));
            let ks = Option.value ~default:[] !polling in
            polling := None;
            let moved = Directory.epoch dir > before in
            List.iter (fun k -> k moved) (List.rev ks))
    in
    let f =
      Fetcher.create ~tx ~engine ~self_addr:self ~tracked ~repoll
        ~plan:(fun ~table ~lo ~hi ->
          match clamps ~table ~lo ~hi with
          | `Local -> `Nothing
          | `Wait | `Gap -> `Fail
          | `Fetch cs -> `Clamps cs)
    in
    fetcher := Some f;
    Net_server.set_fetcher server (Fetcher.request f);
    (* The resolver never fetches: a range homed elsewhere answers
       [Deferred], and the read that missed it parks on the fetcher *)
    Server.set_resolver engine (fun ~table ~lo ~hi ->
        match clamps ~table ~lo ~hi with
        | `Local -> Server.Local
        | `Gap ->
          (* surface the misconfiguration instead of serving the gap as
             present-and-empty: the read reports the range missing *)
          Log.warn (fun m ->
              m "the placement leaves a gap inside %s[%s,%s); check the partition specs"
                table lo hi);
          Server.Deferred
        | `Wait (* no directory yet: [Local] would freeze the range empty *) | `Fetch _ ->
          Server.Deferred);
    if Directory.epoch dir > 0 then apply ();
    (* A subscription the granting server no longer holds (a failed push,
       a restart) is refetched: the fresh snapshot goes through
       [feed_base], which reconciles the data and re-fires the updaters —
       join output computed from the frozen copy is repaired too — and
       the [Fetch] re-subscribes. Only a failed refetch (owner
       unreachable) un-marks the range, so the next read goes back
       through the resolver. *)
    let refetch ((table, lo, hi) as key) =
      Fetcher.request f [ key ] (fun ~ok ->
          if not ok then Server.unmark_present engine ~table ~lo ~hi)
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
            Peers.call tx ~timeout:Peers.heal_timeout addr
              (Message.Sub_check { subscriber = self })
              (function
                | Ok (Message.Sub_ranges live) ->
                  (* hash the answer: a compute tracks one range per
                     fetched timeline piece, so [keys] and [live] both
                     grow with the working set and a List.mem join is
                     quadratic *)
                  let live_set = Hashtbl.create (1 + List.length live) in
                  List.iter (fun k -> Hashtbl.replace live_set k ()) live;
                  List.iter
                    (fun ((table, lo, hi) as key) ->
                      if
                        Hashtbl.find_opt tracked key = Some addr
                        && not (Hashtbl.mem live_set key)
                      then begin
                        Obs.Counter.force_add m_sub_lost 1;
                        Log.warn (fun m ->
                            m "subscription %s[%s,%s) lost at %s; refetching" table lo hi addr);
                        Hashtbl.remove tracked key;
                        refetch key
                      end)
                    keys
                | _ ->
                  (* unreachable: reads surface it; the next heartbeat
                     retries once it returns *)
                  ()))
          by_addr
      end
    in
    let last_poll = ref neg_infinity in
    let last_warm = ref neg_infinity in
    Net_server.add_ticker server (fun () ->
        let now = Unix.gettimeofday () in
        if now -. !last_poll >= cfg.Config.poll_every then begin
          last_poll := now;
          repoll ignore
        end;
        sync ();
        if !warm_pending <> [] && now -. !last_warm >= 1.0 then begin
          last_warm := now;
          warm_replicas ()
        end;
        heal now)
  end
