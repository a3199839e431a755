(* The asynchronous remote read path (Remote.attach): parked scans,
   fan-out fetch batching, and single-flight coalescing, driven over
   real TCP sockets in one process with manually-stepped event loops —
   a home server and a compute server whose scans miss. *)

module Net_server = Pequod_server_lib.Net_server
module Remote = Pequod_server_lib.Remote
module Directory = Pequod_server_lib.Directory
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Oracle = Pequod_oracle.Oracle
(* Rng comes unwrapped from pequod_util *)

let check_bool = Alcotest.(check bool)

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let with_server ~joins f =
  let t = Net_server.create ~port:0 ~joins ~memory_limit:None () in
  Fun.protect ~finally:(fun () -> Net_server.stop t) (fun () -> f t)

let addr_of t = Printf.sprintf "127.0.0.1:%d" (Net_server.port t)

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Net_server.port t));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

let write_all fd s =
  let sent = ref 0 in
  while !sent < String.length s do
    sent := !sent + Unix.write_substring fd s !sent (String.length s - !sent)
  done

(* write [reqs] as one pipelined burst, then step every server in
   [servers] until the same number of raw response frames arrived *)
let pipeline_raw ~servers fd reqs =
  write_all fd
    (String.concat "" (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs));
  let want = List.length reqs in
  let decoder = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let frames = ref [] in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while List.length !frames < want do
    if Unix.gettimeofday () > deadline then failwith "pipeline_raw timeout";
    List.iter (fun t -> Net_server.step ~timeout:0.002 t) servers;
    match Unix.select [ fd ] [] [] 0.002 with
    | [ _ ], _, _ ->
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "connection closed";
      frames := !frames @ Frame.feed decoder (Bytes.sub_string buf 0 n)
    | _ -> ()
  done;
  !frames

let rpc ~servers fd req =
  match pipeline_raw ~servers fd [ req ] with
  | [ frame ] -> Message.decode_response frame
  | _ -> assert false

(* let in-flight pushes / fetch completions drain *)
let settle servers =
  for _ = 1 to 10 do
    List.iter (fun t -> Net_server.step ~timeout:0.001 t) servers
  done

let counter t name = Server.counter (Net_server.engine t) name

(* placement entries from --partition specs, as seen by [self] *)
let spec_entries ~peers ~self specs =
  match Directory.of_specs ~peers ~self specs with
  | Ok entries -> entries
  | Error e -> Alcotest.fail e

(* a static placement: the specs pinned at epoch 1 *)
let pinned ~peers ~self specs = Result.get_ok (Directory.pin (spec_entries ~peers ~self specs))

(* N pipelined scans of the same cold timeline must cost exactly one
   wire Fetch per distinct missing source range: the first parked scan
   issues each fetch, the other N-1 join the in-flight entry
   ([fetch.coalesced]), and every response is identical. The timeline
   join misses in two waves -- the check source (s|) first, then, once
   its feed names the poster, the copy source (p|) -- so each of the
   two ranges is single-flighted across all N waiters. The same holds
   for a directory-routed compute — every topology takes the parked
   path — whose entries list a dead read replica first: each fetch
   falls through it to the home, still one wire fetch per range. *)
let test_single_flight ~directory () =
  with_server ~joins:[] @@ fun home ->
  with_server ~joins:[ timeline_join ] @@ fun compute ->
  let h = Net_server.engine home in
  Server.mark_present h ~table:"s" ~lo:"s|" ~hi:"s}";
  Server.mark_present h ~table:"p" ~lo:"p|" ~hi:"p}";
  Server.put h "s|ann|bob" "1";
  Server.put h "p|bob|0000000007" "hello";
  let self_addr = addr_of compute in
  let dir =
    if not directory then pinned ~peers:[ addr_of home ] ~self:self_addr [ "s"; "p" ]
    else begin
      let dir = Directory.create () in
      let entries =
        List.map
          (fun (e : Message.dir_entry) -> { e with de_replicas = [ "127.0.0.1:9" ] })
          (spec_entries ~peers:[ addr_of home ] ~self:self_addr [ "s"; "p" ])
      in
      (match Directory.install dir ~epoch:1 ~entries with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Net_server.set_directory compute ~dir ~self_addr ();
      dir
    end
  in
  Remote.attach
    (Remote.Config.make ~server:compute ~engine:(Net_server.engine compute) ~self_addr dir);
  let fd = connect compute in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let n = 5 in
  let servers = [ compute; home ] in
  let frames =
    pipeline_raw ~servers fd
      (List.init n (fun _ -> Message.Scan { lo = "t|ann|"; hi = "t|ann}" }))
  in
  let expected = Message.Pairs [ ("t|ann|0000000007|bob", "hello") ] in
  List.iteri
    (fun i frame ->
      check_bool (Printf.sprintf "response %d" i) true
        (Message.decode_response frame = expected))
    frames;
  (* two distinct missing ranges (s|ann, then p|bob), each fetched
     over the wire exactly once on behalf of all five waiters *)
  check_bool "one wire fetch per range" true (counter home "peer.fetch.in" = 2);
  check_bool "coalesced joins" true (counter compute "fetch.coalesced" = 2 * (n - 1));
  check_bool "all scans parked" true (counter compute "scan.parked" = n)

(* A parked scan whose home is unreachable answers Error without
   wedging the connection: requests pipelined behind it still answer,
   in order, and the connection stays usable afterwards. The timeline
   join's check source (s|) is routed to [home], so the scan parks and
   its burst fetch fails — at once where nothing listens, at the fetch
   deadline where a home accepts but never answers. *)
let test_park_failure ~home () =
  with_server ~joins:[ timeline_join ] @@ fun compute ->
  let home_addr, close_home =
    match home with
    | `Refused ->
      (* port 9 on loopback: nothing listens; connect is refused at once *)
      ("127.0.0.1:9", ignore)
    | `Silent ->
      (* listens, so connects complete in the kernel, but never accepts
         or reads: no answer ever comes *)
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen sock 8;
      let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
      (Printf.sprintf "127.0.0.1:%d" port, fun () -> Unix.close sock)
  in
  Fun.protect ~finally:close_home @@ fun () ->
  let dir =
    pinned ~peers:[] ~self:(addr_of compute) [ "s@" ^ home_addr; "p@" ^ home_addr ]
  in
  Remote.attach
    (Remote.Config.make ~server:compute ~engine:(Net_server.engine compute)
       ~self_addr:(addr_of compute) dir);
  let fd = connect compute in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let servers = [ compute ] in
  (match
     List.map Message.decode_response
       (pipeline_raw ~servers fd
          [ Message.Scan { lo = "t|ann|"; hi = "t|ann}" };
            Message.Put ("other|k", "1");
            Message.Get "other|k" ])
   with
  | [ Message.Error _; (Message.Done | Message.Stamps _); Message.Value (Some "1") ] -> ()
  | rs ->
    Alcotest.failf "expected [Error; Done; Value], got %d responses: %s"
      (List.length rs)
      (String.concat ", "
         (List.map
            (function
              | Message.Error _ -> "Error"
              | Message.Done -> "Done"
              | Message.Stamps _ -> "Stamps"
              | Message.Value _ -> "Value"
              | Message.Pairs _ -> "Pairs"
              | _ -> "?")
            rs)));
  check_bool "failed scan parked" true (counter compute "scan.parked" >= 1)

(* ------------------------------------------------------------------ *)
(* async == oracle                                                     *)

let users = [| "ann"; "bob"; "cat"; "dan"; "eve" |]

(* One random interleaving of home writes and compute timeline reads:
   every compute response must equal the timeline the oracle computes
   from scratch over the same writes. *)
let check_transcript seed =
  with_server ~joins:[] @@ fun home ->
  with_server ~joins:[ timeline_join ] @@ fun compute ->
  let h = Net_server.engine home in
  Server.mark_present h ~table:"s" ~lo:"s|" ~hi:"s}";
  Server.mark_present h ~table:"p" ~lo:"p|" ~hi:"p}";
  let dir = pinned ~peers:[ addr_of home ] ~self:(addr_of compute) [ "s"; "p" ] in
  let servers = [ compute; home ] in
  Remote.attach
    (Remote.Config.make ~server:compute ~engine:(Net_server.engine compute)
       ~self_addr:(addr_of compute) dir);
  let oracle = Oracle.create () in
  (match Oracle.add_join_text oracle timeline_join with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let hfd = connect home in
  let cfd = connect compute in
  Fun.protect
    ~finally:(fun () ->
      Unix.close hfd;
      Unix.close cfd)
  @@ fun () ->
  let rng = Rng.create seed in
  let reads = ref 0 in
  let write req =
    ignore (rpc ~servers hfd req);
    (match req with
    | Message.Put (k, v) -> Oracle.put oracle k v
    | Message.Remove k -> Oracle.remove oracle k
    | _ -> ());
    settle servers
  in
  let read_compute ranges =
    let expected =
      List.map (fun (lo, hi) -> Message.Pairs (Oracle.scan oracle ~lo ~hi)) ranges
    in
    let frames =
      pipeline_raw ~servers cfd (List.map (fun (lo, hi) -> Message.Scan { lo; hi }) ranges)
    in
    List.iter2
      (fun want frame ->
        incr reads;
        if Message.decode_response frame <> want then
          Alcotest.failf "seed %d: read %d differs from the oracle" seed !reads)
      expected frames
  in
  let timeline u = ("t|" ^ u ^ "|", "t|" ^ u ^ "}") in
  for _ = 1 to 40 do
    match Rng.int rng 100 with
    | n when n < 25 ->
      write
        (Message.Put (Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users), "1"))
    | n when n < 45 ->
      let k = Printf.sprintf "p|%s|%010d" (Rng.pick rng users) (Rng.int rng 50) in
      write (Message.Put (k, Printf.sprintf "m%d" (Rng.int rng 10)))
    | n when n < 55 ->
      write (Message.Remove (Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users)))
    | n when n < 80 -> read_compute [ timeline (Rng.pick rng users) ]
    | _ ->
      (* a pipelined burst of reads over several users: different
         parked scans in flight at once *)
      read_compute (List.init 3 (fun _ -> timeline (Rng.pick rng users)))
  done;
  (* final whole-table read *)
  read_compute [ ("t|", "t}") ]

let test_oracle_transcripts () = List.iter check_transcript [ 1; 7; 42; 1234 ]

let () =
  Alcotest.run "async"
    [
      ( "async-read-path",
        [
          Alcotest.test_case "single-flight coalescing" `Quick
            (test_single_flight ~directory:false);
          Alcotest.test_case "single-flight directory-routed" `Quick
            (test_single_flight ~directory:true);
          Alcotest.test_case "parked failure keeps order" `Quick
            (test_park_failure ~home:`Refused);
          Alcotest.test_case "parked failure keeps order, silent home" `Quick
            (test_park_failure ~home:`Silent);
          Alcotest.test_case "async == oracle transcripts" `Quick test_oracle_transcripts;
        ] );
    ]
