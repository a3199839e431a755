(* Typed blocking TCP client for the Pequod wire protocol: lazy connect
   + Hello/Welcome handshake, bounded reconnect retries with exponential
   backoff, per-request response deadlines, and request pipelining. For
   tools and tests; servers talk to each other through their loop's own
   transport (peers.ml) instead. *)

module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame

exception Net_error of string

(* internal: response deadline passed (mapped to Net_error at the API
   edge, after the timeout counter fires) *)
exception Timeout

(* internal: the server rejected the Hello, or spoke a different
   version — permanent, never retried *)
exception Handshake_failed of string

type config = {
  connect_timeout : float;
  call_timeout : float;
  max_retries : int;
  backoff : float;
}

let default_config =
  { connect_timeout = 5.0; call_timeout = 10.0; max_retries = 3; backoff = 0.05 }

type conn = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  mutable inbox : string list; (* decoded, unconsumed response frames, oldest first *)
}

type t = {
  chost : string;
  cport : int;
  config : config;
  mutable conn : conn option;
  buf : Bytes.t;
  m_rpcs : Obs.Counter.t; (* net.client.rpcs *)
  m_retries : Obs.Counter.t; (* net.client.retries *)
  m_timeouts : Obs.Counter.t; (* net.client.timeouts *)
}

let create ?obs ?(config = default_config) ~host ~port () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    chost = host;
    cport = port;
    config;
    conn = None;
    buf = Bytes.create 65_536;
    m_rpcs = Obs.counter obs "net.client.rpcs";
    m_retries = Obs.counter obs "net.client.retries";
    m_timeouts = Obs.counter obs "net.client.timeouts";
  }

let host t = t.chost
let port t = t.cport
let connected t = t.conn <> None

(* the exact bytes [call]/[pipeline] put on the wire for one request,
   for callers that drive their own sockets *)
let encode_request_frame req = Frame.encode (Message.encode_request req)

let close t =
  match t.conn with
  | None -> ()
  | Some c ->
    t.conn <- None;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())

let addr_of host port =
  let inet =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] -> raise (Net_error ("unknown host " ^ host))
      | addrs -> addrs.(0)
      | exception Not_found -> raise (Net_error ("unknown host " ^ host)))
  in
  Unix.ADDR_INET (inet, port)

(* one TCP connect with its own deadline (non-blocking connect + select,
   then SO_ERROR to learn the outcome) *)
let connect_once t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    (try Unix.connect fd (addr_of t.chost t.cport)
     with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
       match Unix.select [] [ fd ] [] t.config.connect_timeout with
       | _, _ :: _, _ -> (
         match Unix.getsockopt_error fd with
         | None -> ()
         | Some err -> raise (Unix.Unix_error (err, "connect", "")))
       | _ -> raise Timeout));
    Unix.clear_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  with
  | () -> { fd; decoder = Frame.decoder (); inbox = [] }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* next response frame, waiting until [deadline] *)
let read_frame t conn ~deadline =
  let rec go () =
    match conn.inbox with
    | f :: rest ->
      conn.inbox <- rest;
      f
    | [] -> (
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then raise Timeout;
      match Unix.select [ conn.fd ] [] [] remaining with
      | [], _, _ -> raise Timeout
      | _ -> (
        match Unix.read conn.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> raise (Net_error "connection closed by server")
        | n ->
          conn.inbox <- conn.inbox @ Frame.feed conn.decoder (Bytes.sub_string t.buf 0 n);
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let handshake t conn =
  write_all conn.fd
    (Frame.encode
       (Message.encode_request (Message.Hello { version = Message.protocol_version })));
  let deadline = Unix.gettimeofday () +. t.config.call_timeout in
  match Message.decode_response (read_frame t conn ~deadline) with
  | Message.Welcome { version } when version = Message.protocol_version -> ()
  | Message.Welcome { version } ->
    raise
      (Handshake_failed
         (Printf.sprintf "server speaks protocol v%d, this client v%d" version
            Message.protocol_version))
  | Message.Error msg -> raise (Handshake_failed msg)
  | _ -> raise (Handshake_failed "unexpected handshake response")
  | exception Message.Protocol_error msg -> raise (Handshake_failed msg)

(* the connection, establishing (and handshaking) it if needed, with
   bounded backed-off retries. Version mismatches are permanent: they
   surface immediately, without burning retries on a hopeless peer. *)
let ensure_conn t =
  match t.conn with
  | Some c -> c
  | None ->
    let rec attempt n =
      match
        let c = connect_once t in
        (try handshake t c
         with e ->
           (try Unix.close c.fd with Unix.Unix_error _ -> ());
           raise e);
        c
      with
      | c ->
        t.conn <- Some c;
        c
      | exception Handshake_failed msg ->
        raise (Net_error ("handshake with " ^ t.chost ^ " failed: " ^ msg))
      | exception ((Unix.Unix_error _ | Timeout | Net_error _) as e) ->
        if n >= t.config.max_retries then
          let why =
            match e with
            | Unix.Unix_error (err, _, _) -> Unix.error_message err
            | Timeout -> "timed out"
            | Net_error msg -> msg
            | _ -> assert false
          in
          raise
            (Net_error
               (Printf.sprintf "connect to %s:%d failed after %d attempts: %s" t.chost
                  t.cport (n + 1) why))
        else begin
          Obs.Counter.force_add t.m_retries 1;
          Unix.sleepf (t.config.backoff *. (2.0 ** float_of_int n));
          attempt (n + 1)
        end
    in
    attempt 0

(* map an in-flight failure to Net_error, closing the (now unusable)
   connection so the next request reconnects *)
let broken t e =
  close t;
  match e with
  | Timeout ->
    Obs.Counter.force_add t.m_timeouts 1;
    raise (Net_error "request timed out")
  | Unix.Unix_error (err, _, _) -> raise (Net_error ("i/o error: " ^ Unix.error_message err))
  | Message.Protocol_error msg -> raise (Net_error ("protocol error: " ^ msg))
  | Net_error msg -> raise (Net_error msg)
  | e -> raise e

(* A blocking call inside a server loop step would stall every
   connection that loop serves: servers reach peers through their own
   transport instead (peers.ml), so this is always a bug. *)
let refuse_in_step what =
  if Peers.in_step () then
    invalid_arg ("Net_client." ^ what ^ ": blocking call inside a server loop step")

let call ?timeout t req =
  refuse_in_step "call";
  if Message.is_oneway req then invalid_arg "Net_client.call: one-way request";
  let timeout = match timeout with Some s -> s | None -> t.config.call_timeout in
  Obs.Counter.incr t.m_rpcs;
  let conn = ensure_conn t in
  match
    write_all conn.fd (Frame.encode (Message.encode_request req));
    let deadline = Unix.gettimeofday () +. timeout in
    Message.decode_response (read_frame t conn ~deadline)
  with
  | resp -> resp
  | exception e -> broken t e

let pipeline ?timeout t reqs =
  refuse_in_step "pipeline";
  if List.exists Message.is_oneway reqs then
    invalid_arg "Net_client.pipeline: one-way request";
  let timeout = match timeout with Some s -> s | None -> t.config.call_timeout in
  let conn = ensure_conn t in
  Obs.Counter.add t.m_rpcs (List.length reqs);
  match
    let out = Buffer.create 256 in
    List.iter
      (fun req -> Buffer.add_string out (Frame.encode (Message.encode_request req)))
      reqs;
    write_all conn.fd (Buffer.contents out);
    (* each response gets its own deadline window: a long pipeline is
       not punished for the server draining it serially *)
    List.map
      (fun _ ->
        let deadline = Unix.gettimeofday () +. timeout in
        Message.decode_response (read_frame t conn ~deadline))
      reqs
  with
  | resps -> resps
  | exception e -> broken t e
