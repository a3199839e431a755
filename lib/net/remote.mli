(** Live distributed deployment (§2.4/§3.3): a cache engine's
    missing-range resolver and fetch engine, planned against the
    server's placement ({!Directory.t}) and speaking through the serving
    loop's own transport ({!Peers}).

    Every topology routes by one placement: static [--partition] specs
    and shard cuts are a directory pinned at epoch 1, a directory-routed
    cluster a live one. Ranges homed at this process are marked present
    (home ownership). Ranges homed elsewhere are fetched on first need:
    the resolver never fetches itself — it answers [Deferred], and the
    read that missed parks while the fetcher sends [Fetch] naming this
    server's own address as the subscriber, to a replica of the range
    or its home. The server answers [Subscribed] with a snapshot and
    starts pushing [Notify_batch] frames for every later write in the
    range — the protocol the simulator models, between live processes.
    Join outputs are never fetched: every server computes them from its
    subscription-fresh sources.

    A fetch that fails on every candidate (peers down, refusing, or
    past the fetch deadline) fails the parked read with an [Error]; the
    next read retries, so a respawned peer heals the route. When a
    candidate refused the range, a follower first re-polls its seed: a
    migration may have moved the range, and if a newer epoch installs
    the read re-plans against it instead of failing.

    Subscriptions self-heal: the tick {!attach} registers periodically
    sends [Sub_check] to every server this one fetched from and compares
    the answer against the subscriptions it believes it holds. A range
    the server dropped (a failed push, a restart) is refetched —
    [feed_base] reconciles the data and re-fires the updaters, and the
    [Fetch] re-subscribes — or, if the owner is unreachable, un-marked
    present so the next read goes back through the resolver. Losses are
    counted in [peer.sub.lost]. *)

(** How a missing [\[lo, hi)] of [table] maps onto the placement, seen
    from [self].
    [`Unrouted]: no entry governs the table — it is purely local.
    [`Gap]: entries govern the table but leave part of the range
    uncovered — a partition misconfiguration, surfaced as [Deferred]
    rather than silently served as present-and-empty.
    [`Fetch clamps]: the per-entry clamps homed elsewhere (an empty
    list means every overlapping entry is homed at [self], so the range
    resolves [Local]). Wildcard entries come instantiated against
    [table]. Exposed for tests. *)
val plan :
  Directory.t -> self:string -> table:string -> lo:string -> hi:string ->
  [ `Unrouted | `Gap | `Fetch of (Directory.entry * string * string) list ]

(** The single configuration surface for wiring an engine into the
    cluster; {!attach} is the one entry point. *)
module Config : sig
  type t = {
    engine : Pequod_core.Server.t;
    self_addr : string;  (** this server's advertised host:port *)
    dir : Directory.t;
        (** the placement, shared with {!Net_server.set_directory}:
            pinned, or a live directory re-planned on every epoch
            change *)
    seed : string option;
        (** a live directory's seed to poll; [None]: this server is
            the seed, or the placement is pinned *)
    poll_every : float;  (** the follower's seed-poll period, seconds *)
    server : Net_server.t;
        (** the {!Net_server.t} serving [engine]: its loop parks the
            reads that miss, carries every peer exchange, and runs the
            maintenance tick *)
    check_every : float;  (** [Sub_check] healing period, seconds *)
  }

  (** Build a config; defaults: [check_every = 2.0], [poll_every =
      1.0], no seed. *)
  val make :
    ?check_every:float ->
    ?poll_every:float ->
    ?seed:string ->
    server:Net_server.t ->
    engine:Pequod_core.Server.t -> self_addr:string -> Directory.t -> t
end

(** Install the configured placement on the engine and register the
    maintenance tick with the server's loop. Call once, before serving.

    A pinned placement that homes nothing elsewhere only marks its
    ranges present: no resolver, no fetcher, no tick. Otherwise reads
    that miss park, and the fetcher issues a parked read's whole missing
    set as one pipelined burst per peer, single-flighted across waiters
    ([fetch.coalesced], [fetch.inflight], [resolver.fetch.wait_ns]),
    replicas first and the home last, subscribing as [self_addr]; the
    tick heals subscriptions (one [Sub_check] round per [check_every]
    seconds).

    A live directory re-plans on every epoch change — newly owned
    ranges are marked present, formerly owned ones un-marked, orphaned
    subscriptions dropped, replica duty fetch+subscribed eagerly — and
    with [seed] the tick also polls the seed ([dir.fetch],
    [dir.epoch]).

    Every [Subscribed] snapshot's version stamp is recorded against the
    fed range ({!Pequod_core.Server.set_range_stamp}), so stamped
    session reads (docs/SESSIONS.md) can tell a fresh copy from a stale
    one — on replicas exactly as on computes. *)
val attach : Config.t -> unit
