(** The load generator: single-threaded, nonblocking and open-loop, over
    two connections — writes to the home, reads to the compute — both
    kept in flight at once.

    Op [k] of a phase at rate [r] is due at [t0 + k/r], fixed in
    advance. Its latency runs from that due time to the moment its own
    response frame is decoded, so a stall is charged to every op it
    delays. Latencies are kept as exact samples.

    Posts in the fixed-rate window are also followed for freshness: once
    a post is acknowledged, a probe scans the post's timeline key on one
    follower whose timeline is materialized, again and again (one probe
    in flight per post) until the compute returns it. *)

module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Net_client = Pequod_server_lib.Net_client
module Workload = Pequod_apps.Workload
module Social_graph = Pequod_apps.Social_graph

type status = Pending | Ok | Failed

type kind = Op of Workload.op | Probe of probe

and probe = {
  pr_key : string;  (** the timeline key the post must produce *)
  pr_due : int;  (** the post's due time *)
  pr_deadline : int;
}

type op = {
  id : int;
  cls : int;  (** {!Twipops.class_of}, or 4 for a probe *)
  step : int;  (** -1: the fixed-rate window; k >= 0: ladder step k *)
  traced : bool;
  due : int;
  pick : int;  (** the generator took the op up *)
  enc0 : int;  (** request built, encoding starts *)
  enc : int;  (** request frame encoded and handed to the connection *)
  req_bytes : int;
  mutable arrive : int;  (** the read that completed its response frame *)
  mutable fin : int;  (** response decoded *)
  mutable decode_ns : int;  (** its share of [Frame.feed] + its [decode_response] *)
  mutable resp_bytes : int;
  mutable status : status;
  kind : kind;
}

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable obuf : Bytes.t;  (** unsent request bytes are [obuf.[opos, olen)] *)
  mutable opos : int;
  mutable olen : int;
  fifo : op Queue.t;
  rbuf : Bytes.t;
  mutable dead : bool;
}

type t = {
  home : conn;
  compute : conn;
  graph : Social_graph.t;
  stream : Workload.stream;
  client : Twipops.client;
  model : Twipops.model;
  warm : bool array;  (** timeline materialized on the compute *)
  spans : Spans.t;
  mutable ops : op list;  (** newest first *)
  mutable nops : int;
  mutable digest : int;  (** of the workload ops issued so far *)
  mutable issued : int;  (** workload ops issued so far (probes excluded) *)
  mutable probe_since : int option;
  mutable probed_posts : int;
  mutable probes_live : int;
  mutable fresh : (int * float) list;
      (** freshness samples: the post's due time, ms until a probe saw it *)
  mutable errors : string list;
  mutable timeouts : int;
}

let followers_per_probe = 4
let probed_posts_per_s = 40.0
let probe_timeout_ns = 2_000_000_000

let connect addr =
  let i = String.rindex addr ':' in
  let host = String.sub addr 0 i in
  let port = int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let dec = Frame.decoder () in
  (* the protocol handshake, blocking, before the loop owns the socket *)
  let hello = Net_client.encode_request_frame (Message.Hello { version = Message.protocol_version }) in
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  let buf = Bytes.create 65536 in
  let rec welcome () =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    if n = 0 then failwith ("handshake with " ^ addr ^ ": connection closed");
    match Frame.feed dec (Bytes.sub_string buf 0 n) with
    | [] -> welcome ()
    | [ f ] -> (
      match Message.decode_response f with
      | Message.Welcome _ -> ()
      | _ -> failwith ("handshake with " ^ addr ^ " refused"))
    | _ -> failwith ("handshake with " ^ addr ^ ": unexpected frames")
  in
  welcome ();
  Unix.set_nonblock fd;
  { fd; dec; obuf = Bytes.create 65536; opos = 0; olen = 0; fifo = Queue.create ();
    rbuf = buf; dead = false }

let create ~home_addr ~compute_addr ~graph ~stream ~client ~model ~warm ~spans =
  { home = connect home_addr; compute = connect compute_addr; graph; stream; client; model;
    warm; spans; ops = []; nops = 0; digest = 0; issued = 0;
    probe_since = None; probed_posts = 0; probes_live = 0; fresh = []; errors = []; timeouts = 0 }

let close g = List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) [ g.home; g.compute ]

let note_error g msg = if List.length g.errors < 5 then g.errors <- msg :: g.errors

(* An op that will never be answered. *)
let fail g op why =
  op.status <- Failed;
  note_error g why;
  match op.kind with
  | Op wop -> Twipops.unsure g.model wop
  | Probe _ -> g.probes_live <- g.probes_live - 1

let lose g conn why =
  if not conn.dead then begin
    conn.dead <- true;
    Queue.iter (fun op -> fail g op why) conn.fifo;
    Queue.clear conn.fifo;
    conn.opos <- 0;
    conn.olen <- 0
  end

let append conn s =
  let len = String.length s in
  if conn.opos > 0 then begin
    Bytes.blit conn.obuf conn.opos conn.obuf 0 (conn.olen - conn.opos);
    conn.olen <- conn.olen - conn.opos;
    conn.opos <- 0
  end;
  if conn.olen + len > Bytes.length conn.obuf then begin
    let bigger = Bytes.create (2 * (conn.olen + len)) in
    Bytes.blit conn.obuf 0 bigger 0 conn.olen;
    conn.obuf <- bigger
  end;
  Bytes.blit_string s 0 conn.obuf conn.olen len;
  conn.olen <- conn.olen + len

let try_write g conn =
  let len = conn.olen - conn.opos in
  if len > 0 && not conn.dead then
    match Unix.single_write conn.fd conn.obuf conn.opos len with
    | n ->
      conn.opos <- conn.opos + n;
      if conn.opos = conn.olen then begin
        conn.opos <- 0;
        conn.olen <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> lose g conn ("write: " ^ Unix.error_message e)

let send g conn ~cls ~step ~traced ~due ~pick kind req =
  let enc0 = Clock.now_ns () in
  let frame = Net_client.encode_request_frame req in
  let op =
    { id = g.nops; cls; step; traced; due; pick; enc0; enc = Clock.now_ns ();
      req_bytes = String.length frame; arrive = 0; fin = 0; decode_ns = 0; resp_bytes = 0;
      status = Pending; kind }
  in
  g.ops <- op :: g.ops;
  g.nops <- g.nops + 1;
  if conn.dead then fail g op "connection lost"
  else begin
    append conn frame;
    Queue.push op conn.fifo;
    try_write g conn
  end

let issue g ~step ~traced ~due =
  let pick = Clock.now_ns () in
  let wop = Workload.next g.stream in
  g.digest <- Twipops.digest_step g.digest wop;
  g.issued <- g.issued + 1;
  let dest, req = Twipops.request g.client wop in
  let conn = match dest with Twipops.Home -> g.home | Twipops.Compute -> g.compute in
  send g conn ~cls:(Twipops.class_of wop) ~step ~traced ~due ~pick (Op wop) req

let send_probe g pr =
  let now = Clock.now_ns () in
  let hi = Strkey.key_after pr.pr_key in
  send g g.compute ~cls:4 ~step:(-1) ~traced:false ~due:now ~pick:now (Probe pr)
    (Message.Scan { lo = pr.pr_key; hi })

(* Follow an acknowledged post on up to [followers_per_probe] of its
   followers, searching from a point fixed by the post and preferring
   followers whose timelines are materialized (on a cold compute the
   others are probed too: the probe then waits for the fetch). *)
let start_probe g ~poster ~time ~due =
  let n = Social_graph.follower_count g.graph poster in
  let followers = Social_graph.followers g.graph poster in
  let start = if n = 0 then 0 else Hashtbl.hash (poster, time) mod n in
  let ordered = List.init n (fun i -> followers.((start + i) mod n)) in
  let warm, cold = List.partition (fun f -> g.warm.(f)) ordered in
  let chosen = List.filteri (fun i _ -> i < followers_per_probe) (warm @ cold) in
  List.iter
    (fun f ->
      g.probes_live <- g.probes_live + 1;
      send_probe g
        { pr_key = Twipops.timeline_key f time poster; pr_due = due;
          pr_deadline = Clock.now_ns () + probe_timeout_ns })
    chosen;
  if chosen <> [] then g.probed_posts <- g.probed_posts + 1

(* Probing is on during the fixed-rate window ([probe_since] is its
   start), capped at [probed_posts_per_s] posts. *)
let may_probe g =
  match g.probe_since with
  | None -> false
  | Some t0 ->
    float_of_int g.probed_posts
    < 1.0 +. (probed_posts_per_s *. float_of_int (Clock.now_ns () - t0) /. 1e9)

let unexpected g op resp =
  fail g op
    (match resp with
    | Message.Error msg -> "error: " ^ msg
    | Message.Stale _ -> "stale"
    | _ -> "unexpected response")

let handle g op resp =
  match (op.kind, resp) with
  | Op (Workload.Login u | Workload.Check u), Message.Pairs _ ->
    op.status <- Ok;
    g.warm.(u) <- true
  | Op (Workload.Subscribe _ as wop), (Message.Stamps _ | Message.Done) ->
    op.status <- Ok;
    Twipops.ack g.model wop
  | Op (Workload.Post (p, time) as wop), (Message.Stamps _ | Message.Done) ->
    op.status <- Ok;
    Twipops.ack g.model wop;
    if may_probe g then start_probe g ~poster:p ~time ~due:op.due
  | Probe pr, Message.Pairs pairs ->
    op.status <- Ok;
    if List.exists (fun (k, _) -> String.equal k pr.pr_key) pairs then begin
      g.probes_live <- g.probes_live - 1;
      g.fresh <- (pr.pr_due, float_of_int (op.fin - pr.pr_due) /. 1e6) :: g.fresh
    end
    else if op.fin < pr.pr_deadline then send_probe g pr
    else begin
      g.probes_live <- g.probes_live - 1;
      note_error g ("post never reached its follower: " ^ pr.pr_key);
      op.status <- Failed
    end
  | _, resp -> unexpected g op resp

(** Record the spans of a traced op: [op] covers due → decoded, with
    children [gen.queue] (due → request built, the generator's own
    lateness and work), [proto.encode], [net.wait] (handed to the
    connection → response bytes read; includes any wait for the socket
    to drain) and [proto.decode] (frame reassembly and decode, behind
    any frames that arrived in the same read). *)
let record_spans g op =
  let sp = g.spans in
  let root = Spans.add sp ~parent:0 ~op:op.id "op" op.due op.fin in
  ignore (Spans.add sp ~parent:root ~op:op.id "gen.queue" op.due op.enc0);
  ignore (Spans.add sp ~parent:root ~op:op.id "proto.encode" op.enc0 op.enc);
  ignore (Spans.add sp ~parent:root ~op:op.id "net.wait" op.enc op.arrive);
  ignore (Spans.add sp ~parent:root ~op:op.id "proto.decode" op.arrive op.fin)

let on_readable g conn =
  match Unix.read conn.fd conn.rbuf 0 (Bytes.length conn.rbuf) with
  | 0 -> lose g conn "connection closed by server"
  | n ->
    let arrive = Clock.now_ns () in
    let frames = Frame.feed conn.dec (Bytes.sub_string conn.rbuf 0 n) in
    let fed = Clock.now_ns () in
    let share = (fed - arrive) / max 1 (List.length frames) in
    List.iter
      (fun frame ->
        match Queue.take_opt conn.fifo with
        | None -> lose g conn "response without a request"
        | Some op -> (
          let d0 = Clock.now_ns () in
          match Message.decode_response frame with
          | resp ->
            let d1 = Clock.now_ns () in
            op.arrive <- arrive;
            op.fin <- d1;
            op.decode_ns <- share + (d1 - d0);
            op.resp_bytes <- String.length frame + 4;
            handle g op resp;
            if op.traced && op.status = Ok then record_spans g op
          | exception Message.Protocol_error msg -> fail g op ("undecodable response: " ^ msg)))
      frames
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> lose g conn ("read: " ^ Unix.error_message e)

let live conns = List.filter (fun c -> not c.dead) conns

(* Wait up to [timeout] seconds for either socket, then serve it. *)
let poll g timeout =
  let conns = live [ g.home; g.compute ] in
  let rd = List.map (fun c -> c.fd) conns in
  let wr = List.filter_map (fun c -> if c.olen > c.opos then Some c.fd else None) conns in
  match Unix.select rd wr [] (Float.max 0.0 timeout) with
  | r, w, _ ->
    List.iter (fun c -> if List.memq c.fd w then try_write g c) conns;
    List.iter (fun c -> if List.memq c.fd r && not c.dead then on_readable g c) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let pending g = Queue.length g.home.fifo + Queue.length g.compute.fifo

(** Offer [rate] ops/s for [seconds]. With [trace_slice_ns > 0], ops due
    in odd-numbered slices of that length carry spans. Returns the
    number of ops issued. *)
let run_phase g ~rate ~seconds ~step ~trace_slice_ns =
  let t0 = Clock.now_ns () in
  let n = int_of_float (rate *. seconds) in
  let period = 1e9 /. rate in
  let due k = t0 + int_of_float (float_of_int k *. period) in
  let k = ref 0 in
  while !k < n do
    let now = Clock.now_ns () in
    while !k < n && due !k <= now do
      let d = due !k in
      let traced = trace_slice_ns > 0 && (d - t0) / trace_slice_ns mod 2 = 1 in
      issue g ~step ~traced ~due:d;
      incr k
    done;
    if !k < n then poll g (float_of_int (due !k - Clock.now_ns ()) /. 1e9)
  done;
  n

(** Serve responses until nothing is in flight (probes included) or
    [seconds] pass; whatever is still unanswered then has timed out. *)
let drain g ~seconds =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  while (pending g > 0 || g.probes_live > 0) && Clock.now_ns () < deadline do
    poll g 0.01
  done;
  List.iter
    (fun c ->
      g.timeouts <- g.timeouts + Queue.length c.fifo;
      lose g c "timed out")
    (List.filter (fun c -> Queue.length c.fifo > 0) [ g.home; g.compute ]);
  pending g = 0

(** Every op, oldest first. *)
let ops g = List.rev g.ops

