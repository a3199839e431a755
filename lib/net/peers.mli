(** The serving loop's one outgoing transport. Every server-to-server
    exchange — placement forwards, fetches, subscription pushes,
    [Sub_check] heals, directory polls, migration — goes out through
    the {!t} its {!Net_server} owns, on nonblocking sockets the loop
    itself drives. Nothing here ever blocks: a call completes through
    its callback, from a later loop step.

    Two connections per peer address, connected lazily: one for reads
    and writes, which may park at the peer, and one for everything the
    peer answers at once (fetches, heals, polls, pushes, migration), so
    a ready answer never queues behind a parked one. A failed
    connection sits out a short reconnect backoff ([net.client.retries]
    counts reconnects). Frames are pipelined, and answers are matched
    to callbacks in per-connection order (the wire has no request ids);
    no [Hello] is sent. Every call carries a deadline: one that expires
    ([net.client.timeouts]) tears its connection down, failing every
    call still on it, and so does output that makes no progress for
    {!stall_timeout} seconds (a subscriber that stopped reading its
    pushes). Callers fall through candidate lists themselves (the
    fetcher over a range's replicas then its home, read forwards the
    same way). *)

(** Response deadlines, seconds, one per call kind. *)
val forward_timeout : float

val fetch_timeout : float
val heal_timeout : float  (** [Sub_check] heals and directory polls *)

val migrate_timeout : float

(** Seconds buffered output may sit without write progress. *)
val stall_timeout : float

(** {2 The loop guard} *)

(** Is a server loop step running on this domain? {!Net_client}'s
    blocking calls refuse to run inside one. *)
val in_step : unit -> bool

(** Run one loop step: {!in_step} holds for its duration. *)
val run_step : (unit -> unit) -> unit

(** {2 Output buffers} *)

(** A sliding output buffer of length-prefixed frames, shared with the
    server's client connections. *)
module Outbuf : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add_frame : t -> string -> unit
  val consumed : t -> int -> unit
  val write : t -> Unix.file_descr -> int
end

(** {2 The transport} *)

type t

(** A transport registering its sockets with [poller] and counting
    [net.client.rpcs]/[retries]/[timeouts] in [obs]. *)
val create : obs:Obs.t -> poller:Poller.t -> t

type reply = (Pequod_proto.Message.response, string) result

(** [call t ~timeout addr req k]: send [req] to [addr] and run [k]
    exactly once with its response, or [Error] when the connection
    fails, the deadline passes, or the peer sits out its backoff. [k]
    never runs inside [call]. *)
val call :
  t -> timeout:float -> string -> Pequod_proto.Message.request -> (reply -> unit) -> unit

(** Send a one-way request. [on_fail] runs if the connection fails
    before the bytes reached the kernel. *)
val post : t -> ?on_fail:(string -> unit) -> string -> Pequod_proto.Message.request -> unit

(** Write out every frame queued since the last push (the loop calls
    this after each batch of events). *)
val push : t -> unit

(** The loop's readiness callback for a socket (ignores fds that are
    not this transport's). *)
val ready : t -> Unix.file_descr -> readable:bool -> writable:bool -> unit

(** Work is waiting for {!tick}: the loop should not sleep. *)
val urgent : t -> bool

(** Once per loop step: push, run deferred completions, expire
    deadlines. *)
val tick : t -> unit

(** Close every connection (no callbacks run). *)
val close : t -> unit
