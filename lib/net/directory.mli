(** The placement: the one ownership map every topology routes by — a
    versioned mapping [table range -> home (+ replicas)].

    A {e dynamic} directory is the partition directory proper. One
    server (the {e seed}, [--dir-host]) holds the authoritative copy and
    serves it over [Dir_get]/[Dir_watch]; every other server keeps a
    follower copy refreshed by polling. Each version is stamped with a
    monotonically increasing {e epoch}; an update ([Dir_update], sent by
    [pequod_ctl] or by a migration flipping ownership) is accepted only
    when its epoch is strictly newer, so replayed or crossed updates
    cannot roll the directory back. Epoch 0 means "no directory yet":
    followers treat every range as unresolved until their first
    successful fetch, so a half-started cluster defers reads instead of
    serving empty ranges as truth.

    A {e pinned} directory ({!pin}) is static placement: [--partition]
    specs, or the shard layer's cut vector. It sits at epoch 1 forever,
    is never polled, and refuses every update — so it also refuses
    [Dir_update] and [Migrate] on the wire.

    A {e wildcard} entry ([de_table = "*"]) covers the same slice of
    every table no specific entry names; its bounds are in component
    space (the part of the key after ["T|"]), [""] meaning a table's
    first or last key. Only pinned directories may hold them ({!of_cuts}
    builds them); outside input naming table ["*"] is refused. *)

type entry = Pequod_proto.Message.dir_entry

type t

(** An empty dynamic directory at epoch 0. *)
val create : unit -> t

(** A pinned directory at epoch 1 over [entries] (wildcards allowed);
    fails if they are not structurally valid. *)
val pin : entry list -> (t, string) result

val epoch : t -> int
val entries : t -> entry list

(** True for a {!pin}ned (static) placement. *)
val pinned : t -> bool

(** Structural validity of outside input: ranges non-empty ([lo < hi]),
    homes non-empty strings, no two entries of the same table
    overlapping, and no table named ["*"]. Gaps are allowed (an
    uncovered range simply stays unresolved at computes). *)
val validate : entry list -> (unit, string) result

(** Install a new version iff [t] is dynamic, [epoch] is strictly newer
    than the current one and [entries] validate; entries are normalized
    (sorted, adjacent same-home same-replica ranges coalesced). *)
val install : t -> epoch:int -> entries:entry list -> (unit, string) result

(** Parse [--partition] specs, [TABLE\[:LO:HI\]\[@HOST:PORT\]], against
    the [--peer] list: an explicit [@HOST:PORT] wins; a bare spec is
    homed at the single [--peer] when exactly one is given, at [self]
    when none is, and is an error (ambiguous) with several. A bare
    [TABLE] covers the whole table. Table ["*"] is refused. *)
val of_specs : peers:string list -> self:string -> string list -> (entry list, string) result

(** The shard layer's placement: one wildcard slice per home, cut at
    [cuts] (component space, strictly increasing), pinned. Raises
    [Invalid_argument] unless [cuts] has one element fewer than
    [homes]. *)
val of_cuts : cuts:string list -> homes:string list -> (t, string) result

(** [de_table = "*"]: a wildcard (shard slice) entry. *)
val is_wildcard : entry -> bool

(** The entries governing [table], in key order, wildcards instantiated
    into key space: specific entries if any names [table], otherwise
    the wildcard slices. [[]]: the table is not governed (join outputs,
    local tables). *)
val governing : t -> table:string -> entry list

(** The (instantiated) entry covering [key], if any. *)
val entry_of : t -> key:string -> entry option

(** The home of the range containing [key], if any entry covers it. *)
val home_of : t -> key:string -> string option

(** Every distinct home the placement names. *)
val homes : t -> string list

(** [serves e ~self]: [self] is [e]'s home or one of its replicas, so
    it holds a fresh copy of the range. *)
val serves : entry -> self:string -> bool

(** Where [self] should read or fetch [e]'s range: its replicas other
    than [self], rotated by [self]'s hash so servers spread over them,
    then the home — always last, the authoritative fallback. *)
val candidates : entry -> self:string -> string list

(** [\[lo, hi)] of [table] cut at entry bounds, in key order: each
    piece with its governing entry, [None] for a gap no entry covers. *)
val pieces :
  t -> table:string -> lo:string -> hi:string -> (entry option * string * string) list

(** How a scan of [\[lo, hi)] is served: [`Pieces] (see {!pieces}, for
    the table of [lo]), or — when the range runs past that table under
    a wildcard placement, whose tables cannot be listed — [`Scatter]
    every home (answers merge with {!merge_dedup}). *)
val scan_route :
  t -> lo:string -> hi:string ->
  [ `Pieces of (entry option * string * string) list | `Scatter of string list ]

(** Merge two key-sorted pair lists, dropping duplicate keys (a fetched
    copy duplicates its owner's pair; a join output is computed
    identically wherever it is materialized). Left wins on ties. *)
val merge_dedup : (string * string) list -> (string * string) list -> (string * string) list

(** A new entry list reassigning [table [lo,hi)] to [home] (the
    migration flip): overlapping entries are split around the range,
    the reassigned piece carries no replicas. Fails if the range is
    empty or not fully covered by existing entries of one home. *)
val assign :
  entry list -> table:string -> lo:string -> hi:string -> home:string ->
  (entry list, string) result

(** A new entry list with [addr] added as a read replica of every entry
    of [table] overlapping [[lo,hi)]. Fails if nothing overlaps or
    [addr] is already the home of an overlapping entry. *)
val add_replica :
  entry list -> table:string -> lo:string -> hi:string -> addr:string ->
  (entry list, string) result

(** One human-readable line per entry ([pequod_ctl dir]). *)
val to_lines : t -> string list
