(** Typed blocking TCP client for the Pequod wire protocol: the client
    of the CLI, the load driver, the benchmark and the tests. Servers
    never use it — they reach each other through their loop's own
    nonblocking transport ({!Peers}) — and a {!call} or {!pipeline}
    made while a server loop step runs on the same domain raises
    [Invalid_argument].

    A client is bound to one [host:port] and connects lazily: the first
    {!call} (or {!pipeline}) opens the socket and performs the
    [Hello]/[Welcome] protocol handshake. A connection lost to an I/O
    error or timeout is closed and re-established on the next call, with
    bounded, backed-off reconnect attempts ([net.client.retries]); a
    protocol version mismatch is permanent and never retried.

    Not thread-safe: one client, one caller. *)

(** Any client-visible failure: connect/retry exhaustion, handshake
    rejection, request timeout, I/O error, or an undecodable response.
    The connection is already closed when this is raised; a later call
    reconnects. *)
exception Net_error of string

type config = {
  connect_timeout : float;  (** seconds to wait for one TCP connect *)
  call_timeout : float;  (** default per-request response deadline, seconds *)
  max_retries : int;  (** reconnect attempts after the first failure *)
  backoff : float;  (** initial reconnect delay, seconds; doubles per retry *)
}

(** 5s connect, 10s call, 3 retries, 50ms initial backoff. *)
val default_config : config

type t

(** A client for the server at [host:port]; no I/O happens until the
    first request. [obs] is the registry receiving the client's metrics
    ([net.client.rpcs], [net.client.retries], [net.client.timeouts]);
    omit it for standalone tools. *)
val create : ?obs:Obs.t -> ?config:config -> host:string -> port:int -> unit -> t

val host : t -> string
val port : t -> int

(** Send one request and wait for its response. [timeout] overrides
    [config.call_timeout]. Raises {!Net_error}; a request that timed out
    may still have been applied by the server (the connection is closed,
    but the send happened). One-way requests are refused. Raises
    [Invalid_argument] inside a server loop step. *)
val call : ?timeout:float -> t -> Pequod_proto.Message.request -> Pequod_proto.Message.response

(** Pipeline: write every request in one buffer flush, then read the
    responses in order. Equivalent to [List.map (call t)] but one
    syscall out and no per-request round-trip wait. [timeout] bounds
    each response read. One-way requests are refused; raises
    [Invalid_argument] inside a server loop step. *)
val pipeline :
  ?timeout:float -> t -> Pequod_proto.Message.request list -> Pequod_proto.Message.response list

(** The exact on-the-wire bytes (length-prefixed frame) {!call} and
    {!pipeline} would write for [req], for callers that drive their own
    sockets (the benchmark's open-loop generator). *)
val encode_request_frame : Pequod_proto.Message.request -> string

(** Is the underlying connection currently established? *)
val connected : t -> bool

(** Close the connection (idempotent). The client remains usable: the
    next request reconnects. *)
val close : t -> unit
