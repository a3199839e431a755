(** Live distributed deployment (§2.4/§3.3): wires a {!Net_client} into
    a cache engine as its missing-range resolver, planned against the
    server's placement ({!Directory.t}).

    Every topology routes by one placement: static [--partition] specs
    and shard cuts are a directory pinned at epoch 1, a directory-routed
    cluster a live one. Ranges homed at this process are marked present
    (home ownership). Ranges homed elsewhere are fetched on first need:
    the resolver sends [Fetch] naming this server's own address as the
    subscriber, to a replica of the range or its home, and the server
    answers [Subscribed] with a snapshot and starts pushing
    [Notify_batch] frames for every later write in the range — the
    protocol the simulator models, between live processes. Join outputs
    are never fetched: every server computes them from its
    subscription-fresh sources.

    A fetch that fails on every candidate (peers down, after the
    client's bounded retries) resolves as [Deferred]: the scan reports
    the range as missing and the server answers that client with an
    [Error] instead of crashing; the next scan retries, so a respawned
    peer heals the route.

    Subscriptions self-heal: the tick returned by {!attach} periodically
    sends [Sub_check] to every server this one fetched from and compares
    the answer against the subscriptions it believes it holds. A range
    the server dropped (a failed push, a restart) is refetched —
    [feed_base] reconciles the data and re-fires the updaters, and the
    [Fetch] re-subscribes — or, if the owner is unreachable, un-marked
    present so the next scan goes back through the resolver. Losses are
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
    server : Net_server.t option;
        (** the {!Net_server.t} serving [engine]: turns on the
            asynchronous read path (parked scans, batched single-flight
            fetches). [None]: the blocking resolver only. *)
    check_every : float;  (** [Sub_check] healing period, seconds *)
    on_wait : (unit -> unit) option;
        (** threaded into every blocking peer client (see
            {!Net_client.create}) so the owning loop keeps serving while
            a fetch blocks *)
  }

  (** Build a config; defaults: [check_every = 2.0], [poll_every =
      1.0], no seed, no [on_wait], blocking resolver. *)
  val make :
    ?check_every:float ->
    ?poll_every:float ->
    ?seed:string ->
    ?on_wait:(unit -> unit) ->
    ?server:Net_server.t ->
    engine:Pequod_core.Server.t -> self_addr:string -> Directory.t -> t
end

(** Install the configured placement on the engine and return the
    maintenance tick — run it from the serving event loop
    ({!Net_server.add_ticker}). Call once, before serving.

    A pinned placement that homes nothing elsewhere only marks its
    ranges present: no resolver, no fetcher, and a no-op tick.
    Otherwise a resolver fetches from the owning peers (replicas first,
    the home last) and subscribes as [self_addr], and the tick heals
    subscriptions (one [Sub_check] round per [check_every] seconds). With
    [server] set, scans that miss park instead of blocking: the fetch
    engine issues a parked scan's whole missing set as one pipelined
    burst per peer, single-flighted across waiters ([fetch.coalesced],
    [fetch.inflight], [resolver.fetch.wait_ns]).

    A live directory re-plans on every epoch change — newly owned
    ranges are marked present, formerly owned ones un-marked, orphaned
    subscriptions dropped, replica duty fetch+subscribed eagerly — and
    with [seed] the tick also polls the seed ([dir.fetch],
    [dir.epoch]).

    Every [Subscribed] snapshot's version stamp is recorded against the
    fed range ({!Pequod_core.Server.set_range_stamp}), so stamped
    session reads (docs/SESSIONS.md) can tell a fresh copy from a stale
    one — on replicas exactly as on computes. *)
val attach : Config.t -> unit -> unit
