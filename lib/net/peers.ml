(* The serving loop's one outgoing transport: every server-to-server
   exchange (forwards, fetches, pushes, heals, polls, migration) goes
   out through here, on nonblocking sockets the loop itself drives. *)

module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame

let src = Logs.Src.create "pequod.peers"

module Log = (val Logs.src_log src : Logs.LOG)

(* Response deadlines, one per call kind, seconds *)
let forward_timeout = 10.0
let fetch_timeout = 5.0
let heal_timeout = 2.0 (* Sub_check heal and directory poll *)
let migrate_timeout = 15.0

(* output that makes no progress for this long tears the connection
   down (a subscriber that stopped reading its pushes) *)
let stall_timeout = 5.0

(* a failed peer sits out this long before the next connect *)
let backoff = 0.5

(* Set while a server loop step runs on this domain: the blocking
   client refuses to run inside one (Net_client.call). *)
let stepping = Domain.DLS.new_key (fun () -> ref false)
let in_step () = !(Domain.DLS.get stepping)

let run_step f =
  let flag = Domain.DLS.get stepping in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) f

(* Reusable output buffer: the live span slides ([off] advances as the
   socket accepts bytes) and compacts, so backpressure costs a blit at
   worst — never the O(n^2) string rebuild of [outbuf ^ more]. *)
module Outbuf = struct
  type t = { mutable b : Bytes.t; mutable off : int; mutable len : int }

  let create () = { b = Bytes.create 4096; off = 0; len = 0 }
  let length t = t.len

  let reserve t extra =
    if t.off + t.len + extra > Bytes.length t.b then begin
      if t.off > 0 then begin
        Bytes.blit t.b t.off t.b 0 t.len;
        t.off <- 0
      end;
      if t.len + extra > Bytes.length t.b then begin
        let cap = ref (Bytes.length t.b * 2) in
        while t.len + extra > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.b 0 bigger 0 t.len;
        t.b <- bigger
      end
    end

  (* append a length-prefixed frame around [body] *)
  let add_frame t body =
    let n = String.length body in
    if n > Frame.max_frame then raise (Frame.Frame_too_large n);
    reserve t (4 + n);
    let p = t.off + t.len in
    Bytes.unsafe_set t.b p (Char.unsafe_chr ((n lsr 24) land 0xff));
    Bytes.unsafe_set t.b (p + 1) (Char.unsafe_chr ((n lsr 16) land 0xff));
    Bytes.unsafe_set t.b (p + 2) (Char.unsafe_chr ((n lsr 8) land 0xff));
    Bytes.unsafe_set t.b (p + 3) (Char.unsafe_chr (n land 0xff));
    Bytes.blit_string body 0 t.b (p + 4) n;
    t.len <- t.len + 4 + n

  (* the socket took [n] bytes *)
  let consumed t n =
    t.off <- t.off + n;
    t.len <- t.len - n;
    if t.len = 0 then begin
      t.off <- 0;
      (* a burst that ballooned the buffer should not pin the memory *)
      if Bytes.length t.b > 1 lsl 20 then t.b <- Bytes.create 4096
    end

  let clear t =
    t.off <- 0;
    t.len <- 0;
    if Bytes.length t.b > 1 lsl 20 then t.b <- Bytes.create 4096

  let write t fd = Unix.write fd t.b t.off t.len
end

type reply = (Message.response, string) result

type call = { c_deadline : float; c_k : reply -> unit }

type peer = {
  p_addr : string;
  mutable p_fd : Unix.file_descr option;
  mutable p_connecting : bool; (* nonblocking connect pending SO_ERROR *)
  mutable p_want_write : bool; (* current poller write interest *)
  mutable p_decoder : Frame.decoder;
  p_out : Outbuf.t; (* encoded frames not yet written *)
  p_calls : call Queue.t; (* responses match heads in order *)
  mutable p_down_until : float; (* reconnect backoff deadline *)
  mutable p_progress : float; (* last write progress while output is pending *)
  mutable p_on_fail : (string -> unit) list; (* posts still buffered *)
  mutable p_dialed : bool; (* connected before: the next connect is a retry *)
  mutable p_dirty : bool; (* frames queued since the last [push] *)
}

type t = {
  poller : Poller.t;
  peers : (string * bool, peer) Hashtbl.t; (* (address, parking lane) *)
  by_fd : (Unix.file_descr, peer) Hashtbl.t;
  buf : Bytes.t;
  (* peers with frames queued since the last [push] *)
  mutable dirty : peer list;
  (* failures of calls to a peer sitting out its backoff: completions
     never run inside the [call] that caused them, so [tick] runs these *)
  mutable later : (unit -> unit) list;
  mutable next_sweep : float;
  m_rpcs : Obs.Counter.t; (* net.client.rpcs *)
  m_retries : Obs.Counter.t; (* net.client.retries *)
  m_timeouts : Obs.Counter.t; (* net.client.timeouts *)
}

let create ~obs ~poller =
  { poller; peers = Hashtbl.create 8; by_fd = Hashtbl.create 8; buf = Bytes.create 65_536;
    dirty = []; later = []; next_sweep = neg_infinity;
    m_rpcs = Obs.counter obs "net.client.rpcs";
    m_retries = Obs.counter obs "net.client.retries";
    m_timeouts = Obs.counter obs "net.client.timeouts" }

let split_addr addr =
  match String.rindex_opt addr ':' with
  | Some i -> (
    match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
    | Some port -> (String.sub addr 0 i, port)
    | None -> invalid_arg ("bad peer address: " ^ addr))
  | None -> invalid_arg ("bad peer address: " ^ addr)

let sockaddr_of addr =
  let host, port = split_addr addr in
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

(* Two connections per peer. Reads and writes may park at the peer — a
   read waiting on a fetch, a write on a migration's seal — and answers
   leave in request order, so they get their own connection: an answer
   the peer has ready at once (a fetch, a heal, a poll, the migration's
   barrier) never queues behind a parked one. Sharing one would let two
   servers parked on each other's fetches wait out the deadline. *)
let may_park = function
  | Message.Get _ | Message.Get_at _ | Message.Scan _ | Message.Scan_at _ | Message.Put _
  | Message.Remove _ | Message.Put_batch _ ->
    true
  | _ -> false

let peer_of t addr req =
  let key = (addr, may_park req) in
  match Hashtbl.find_opt t.peers key with
  | Some p -> p
  | None ->
    let p =
      { p_addr = addr; p_fd = None; p_connecting = false; p_want_write = false;
        p_decoder = Frame.decoder ();
        p_out = Outbuf.create (); p_calls = Queue.create (); p_down_until = neg_infinity;
        p_progress = 0.; p_on_fail = []; p_dialed = false; p_dirty = false }
    in
    Hashtbl.add t.peers key p;
    p

(* Tear a connection down: every call still in its pipeline fails (the
   caller moves on to its next candidate, or answers Error), buffered
   posts are lost (their [on_fail] runs), and the peer sits out a short
   backoff so a dead peer is one failed connect per half second. *)
let fail_peer t peer msg =
  if not (Queue.is_empty peer.p_calls) then
    Log.warn (fun m -> m "peer %s: %s; %d calls in flight fail" peer.p_addr msg
        (Queue.length peer.p_calls));
  (match peer.p_fd with
  | Some fd ->
    peer.p_fd <- None;
    Hashtbl.remove t.by_fd fd;
    Poller.remove t.poller fd;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  peer.p_connecting <- false;
  peer.p_decoder <- Frame.decoder ();
  Outbuf.clear peer.p_out;
  peer.p_down_until <- Unix.gettimeofday () +. backoff;
  let calls = List.of_seq (Queue.to_seq peer.p_calls) in
  Queue.clear peer.p_calls;
  let on_fail = peer.p_on_fail in
  peer.p_on_fail <- [];
  List.iter (fun c -> c.c_k (Error msg)) calls;
  List.iter (fun f -> f msg) on_fail

(* Nonblocking flush; write interest stays on exactly while bytes remain
   buffered (a level-triggered poller would spin otherwise), changed
   only when it flips. *)
let flush t peer =
  match peer.p_fd with
  | None -> ()
  | Some _ when peer.p_connecting -> ()
  | Some fd -> (
    let rec go () =
      if Outbuf.length peer.p_out > 0 then
        match Outbuf.write peer.p_out fd with
        | n ->
          Outbuf.consumed peer.p_out n;
          peer.p_progress <- Unix.gettimeofday ();
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    in
    match go () with
    | () ->
      let pending = Outbuf.length peer.p_out > 0 in
      (* every buffered post reached the kernel: nothing left to lose *)
      if not pending then peer.p_on_fail <- [];
      if pending <> peer.p_want_write then begin
        peer.p_want_write <- pending;
        Poller.set t.poller fd ~read:true ~write:pending
      end
    | exception Unix.Unix_error (err, _, _) -> fail_peer t peer ("write: " ^ Unix.error_message err))

(* one response frame = the head of this peer's pipeline *)
let handle_frame t peer frame =
  match Queue.take_opt peer.p_calls with
  | None -> fail_peer t peer "unexpected frame with no call in flight"
  | Some c -> (
    match Message.decode_response frame with
    | resp -> c.c_k (Ok resp)
    | exception Message.Protocol_error msg -> c.c_k (Error ("protocol error: " ^ msg)))

let read_peer t peer fd =
  match Unix.read fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> fail_peer t peer "connection closed"
  | n ->
    List.iter
      (fun frame ->
        (* a completion may tear this peer down (and reconnect it);
           later frames of the old connection are then stale *)
        if peer.p_fd = Some fd then handle_frame t peer frame)
      (Frame.feed peer.p_decoder (Bytes.sub_string t.buf 0 n))
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (err, _, _) -> fail_peer t peer ("read: " ^ Unix.error_message err)

let ready t fd ~readable ~writable =
  match Hashtbl.find_opt t.by_fd fd with
  | None -> ()
  | Some peer ->
    if writable then
      if peer.p_connecting then (
        match Unix.getsockopt_error fd with
        | Some err -> fail_peer t peer ("connect: " ^ Unix.error_message err)
        | None ->
          peer.p_connecting <- false;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          flush t peer)
      else flush t peer;
    if readable && peer.p_fd = Some fd then read_peer t peer fd

(* lazy nonblocking connect; while connecting, write-ready signals the
   outcome (SO_ERROR). No [Hello] is sent: servers answer frames
   without a handshake, and a [Welcome] would desynchronise the
   response-order matching. *)
let connect t peer =
  if peer.p_dialed then Obs.Counter.force_add t.m_retries 1;
  peer.p_dialed <- true;
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.set_nonblock fd
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    ( fd,
      try Unix.connect fd (sockaddr_of peer.p_addr); `Done
      with
      | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> `Pending
      | e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e )
  with
  | fd, how ->
    if how = `Done then
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    peer.p_fd <- Some fd;
    peer.p_connecting <- how = `Pending;
    peer.p_want_write <- peer.p_connecting;
    peer.p_decoder <- Frame.decoder ();
    Hashtbl.replace t.by_fd fd peer;
    Poller.set t.poller fd ~read:true ~write:peer.p_connecting
  | exception Unix.Unix_error (err, _, _) ->
    fail_peer t peer ("connect: " ^ Unix.error_message err)

(* queue one frame for [addr]; the bytes leave at the next [push].
   [None] while the peer sits out its backoff. *)
let send t addr req =
  let peer = peer_of t addr req in
  if peer.p_fd = None && Unix.gettimeofday () < peer.p_down_until then None
  else begin
    Obs.Counter.incr t.m_rpcs;
    if Outbuf.length peer.p_out = 0 then peer.p_progress <- Unix.gettimeofday ();
    Outbuf.add_frame peer.p_out (Message.encode_request req);
    if not peer.p_dirty then begin
      peer.p_dirty <- true;
      t.dirty <- peer :: t.dirty
    end;
    Some peer
  end

let call t ~timeout addr req k =
  match send t addr req with
  | None -> t.later <- (fun () -> k (Error "peer down (reconnect backoff)")) :: t.later
  | Some peer -> Queue.add { c_deadline = Unix.gettimeofday () +. timeout; c_k = k } peer.p_calls

let post t ?on_fail addr req =
  match send t addr req with
  | None ->
    Option.iter
      (fun f -> t.later <- (fun () -> f "peer down (reconnect backoff)") :: t.later)
      on_fail
  | Some peer -> Option.iter (fun f -> peer.p_on_fail <- f :: peer.p_on_fail) on_fail

(* Write out everything queued since the last push: one burst per peer,
   connecting first where needed. Completions of failures found here
   run here, in the loop, never inside [call]/[post]. *)
let push t =
  while t.dirty <> [] do
    let dirty = List.rev t.dirty in
    t.dirty <- [];
    List.iter
      (fun peer ->
        peer.p_dirty <- false;
        if Outbuf.length peer.p_out > 0 then begin
          if peer.p_fd = None then connect t peer;
          flush t peer
        end)
      dirty
  done

let urgent t = t.dirty <> [] || t.later <> []

(* Once per loop step: run deferred completions, and (every 50 ms) fail
   connections holding an expired call or a stalled output buffer. An
   expired call cannot be skipped on its connection — responses match
   calls by pipeline order — so the whole connection is torn down and
   every call on it moves on or fails. *)
let tick t =
  push t;
  while t.later <> [] do
    let later = List.rev t.later in
    t.later <- [];
    List.iter (fun f -> f ()) later;
    push t
  done;
  let now = Unix.gettimeofday () in
  if now >= t.next_sweep then begin
    t.next_sweep <- now +. 0.05;
    let doomed =
      Hashtbl.fold
        (fun _ peer acc ->
          let expired =
            Queue.fold (fun n c -> if c.c_deadline <= now then n + 1 else n) 0 peer.p_calls
          in
          if expired > 0 then (peer, expired, "request timed out") :: acc
          else if
            peer.p_fd <> None
            && Outbuf.length peer.p_out > 0
            && now -. peer.p_progress > stall_timeout
          then (peer, 1, "output stalled") :: acc
          else acc)
        t.peers []
    in
    List.iter
      (fun (peer, n, why) ->
        Obs.Counter.force_add t.m_timeouts n;
        fail_peer t peer why)
      doomed
  end

let close t =
  Hashtbl.iter
    (fun _ peer ->
      match peer.p_fd with
      | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    t.peers;
  Hashtbl.reset t.peers;
  Hashtbl.reset t.by_fd
