(* Integration tests for the network server: the select event loop is
   driven manually with step(), with real TCP sockets in one process. *)

module Net_server = Pequod_server_lib.Net_server
module Net_client = Pequod_server_lib.Net_client
module Remote = Pequod_server_lib.Remote
module Directory = Pequod_server_lib.Directory
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame

let check_bool = Alcotest.(check bool)

(* v3 write acks carry a stamp vector instead of a bare Done *)
let is_ack = function Message.Stamps _ | Message.Done -> true | _ -> false

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let with_server ~joins f =
  let t = Net_server.create ~port:0 ~joins ~memory_limit:None () in
  Fun.protect ~finally:(fun () -> Net_server.stop t) (fun () -> f t)

let connect t =
  let port = Net_server.port t in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* send a request, pump the server loop, read the response *)
let rpc t fd req =
  let wire = Frame.encode (Message.encode_request req) in
  let sent = ref 0 in
  while !sent < String.length wire do
    sent := !sent + Unix.write_substring fd wire !sent (String.length wire - !sent)
  done;
  let decoder = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec read_frame () =
    if Unix.gettimeofday () > deadline then failwith "rpc timeout";
    Net_server.step ~timeout:0.01 t;
    match Unix.select [ fd ] [] [] 0.01 with
    | [ _ ], _, _ -> (
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "connection closed";
      match Frame.feed decoder (Bytes.sub_string buf 0 n) with
      | frame :: _ -> Message.decode_response frame
      | [] -> read_frame ())
    | _ -> read_frame ()
  in
  read_frame ()

let test_basic_session () =
  with_server ~joins:[ timeline_join ] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (match rpc t fd (Message.Hello { version = Message.protocol_version }) with
          | Message.Welcome { version } when version = Message.protocol_version -> ()
          | _ -> Alcotest.fail "handshake over TCP");
          (match rpc t fd (Message.Hello { version = Message.protocol_version + 7 }) with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "version mismatch accepted over TCP");
          check_bool "put sub" true (is_ack (rpc t fd (Message.Put ("s|ann|bob", "1"))));
          check_bool "put post" true
            (is_ack (rpc t fd (Message.Put ("p|bob|0000000100", "hi"))));
          (match rpc t fd (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
          | Message.Pairs [ ("t|ann|0000000100|bob", "hi") ] -> ()
          | _ -> Alcotest.fail "timeline over TCP");
          (match rpc t fd (Message.Get "t|ann|0000000100|bob") with
          | Message.Value (Some "hi") -> ()
          | _ -> Alcotest.fail "get over TCP");
          match rpc t fd Message.Stats_full with
          | Message.Metrics metrics -> check_bool "metrics" true (metrics <> [])
          | _ -> Alcotest.fail "stats_full over TCP"))

(* One-way requests produce no response frame: a Notify_put followed by a
   Get must answer the Get first (and only) — the notify is applied, not
   acknowledged. *)
let test_oneway_notify () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let wire =
            Frame.encode (Message.encode_request (Message.Notify_put ("k|a", "pushed")))
            ^ Frame.encode (Message.encode_request (Message.Get "k|a"))
          in
          let sent = ref 0 in
          while !sent < String.length wire do
            sent := !sent + Unix.write_substring fd wire !sent (String.length wire - !sent)
          done;
          let decoder = Frame.decoder () in
          let buf = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let responses = ref [] in
          while !responses = [] do
            if Unix.gettimeofday () > deadline then failwith "timeout";
            Net_server.step ~timeout:0.01 t;
            match Unix.select [ fd ] [] [] 0.01 with
            | [ _ ], _, _ ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then failwith "connection closed";
              List.iter
                (fun frame -> responses := Message.decode_response frame :: !responses)
                (Frame.feed decoder (Bytes.sub_string buf 0 n))
            | _ -> ()
          done;
          match List.rev !responses with
          | [ Message.Value (Some "pushed") ] -> ()
          | _ -> Alcotest.fail "notify must be one-way and applied before the get"))

let test_runtime_join_installation () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          check_bool "add join" true
            (rpc t fd (Message.Add_join "m|<x> = copy src|<x>") = Message.Done);
          (match rpc t fd (Message.Add_join "nonsense") with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "bad join accepted");
          check_bool "put" true (is_ack (rpc t fd (Message.Put ("src|a", "v"))));
          match rpc t fd (Message.Get "m|a") with
          | Message.Value (Some "v") -> ()
          | _ -> Alcotest.fail "runtime join not applied"))

let test_two_clients () =
  with_server ~joins:[ timeline_join ] (fun t ->
      let fd1 = connect t in
      let fd2 = connect t in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fd1;
          Unix.close fd2)
        (fun () ->
          check_bool "c1 put" true (is_ack (rpc t fd1 (Message.Put ("s|ann|bob", "1"))));
          check_bool "c2 put" true
            (is_ack (rpc t fd2 (Message.Put ("p|bob|0000000001", "x"))));
          (* each client sees the other's writes *)
          match rpc t fd1 (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
          | Message.Pairs [ ("t|ann|0000000001|bob", "x") ] -> ()
          | _ -> Alcotest.fail "cross-client visibility"))

let test_garbage_input () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* a valid frame holding an invalid message must produce an error
             response, not kill the server *)
          let wire = Frame.encode "\xff\xff\xff" in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          let decoder = Frame.decoder () in
          let buf = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec read_frame () =
            if Unix.gettimeofday () > deadline then failwith "timeout";
            Net_server.step ~timeout:0.01 t;
            match Unix.select [ fd ] [] [] 0.01 with
            | [ _ ], _, _ -> (
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              match Frame.feed decoder (Bytes.sub_string buf 0 n) with
              | frame :: _ -> Message.decode_response frame
              | [] -> read_frame ())
            | _ -> read_frame ()
          in
          (match read_frame () with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "expected protocol error");
          (* and the connection still works afterwards *)
          check_bool "still alive" true (is_ack (rpc t fd (Message.Put ("k|a", "v"))))))

let test_put_batch_pipelined () =
  with_server ~joins:[ timeline_join ] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* two batch frames written back-to-back: the server answers both
             from one read with one buffered write, and the batch's puts
             fire the timeline updater like sequential puts would *)
          let reqs =
            [
              Message.Put_batch [ ("s|ann|bob", "1"); ("p|bob|0000000200", "b") ];
              Message.Put_batch [ ("p|bob|0000000100", "a") ];
            ]
          in
          let wire =
            String.concat "" (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs)
          in
          let sent = ref 0 in
          while !sent < String.length wire do
            sent := !sent + Unix.write_substring fd wire !sent (String.length wire - !sent)
          done;
          let decoder = Frame.decoder () in
          let buf = Bytes.create 65536 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let responses = ref [] in
          while List.length !responses < 2 do
            if Unix.gettimeofday () > deadline then failwith "pipeline timeout";
            Net_server.step ~timeout:0.01 t;
            match Unix.select [ fd ] [] [] 0.01 with
            | [ _ ], _, _ ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then failwith "connection closed";
              List.iter
                (fun frame -> responses := Message.decode_response frame :: !responses)
                (Frame.feed decoder (Bytes.sub_string buf 0 n))
            | _ -> ()
          done;
          check_bool "both batches acknowledged" true (List.for_all is_ack !responses);
          match rpc t fd (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
          | Message.Pairs [ ("t|ann|0000000100|bob", "a"); ("t|ann|0000000200|bob", "b") ] -> ()
          | _ -> Alcotest.fail "timeline after pipelined batches"))

(* A subscriber that never reads its pushes must not stall the home:
   pushes queue in the home's transport, so every write is still
   acknowledged promptly, and once the output has made no progress for
   the transport's stall deadline the subscriber is dropped. The
   subscriber address listens but never accepts, so its socket buffers
   fill and stay full. *)
let test_push_never_blocks () =
  with_server ~joins:[] (fun t ->
      Server.mark_present (Net_server.engine t) ~table:"s" ~lo:"s|" ~hi:"s}";
      let sub = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind sub (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen sub 8;
      let sub_addr =
        match Unix.getsockname sub with
        | Unix.ADDR_INET (_, p) -> Printf.sprintf "127.0.0.1:%d" p
        | _ -> assert false
      in
      let fd = connect t in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fd;
          Unix.close sub)
        (fun () ->
          (match
             rpc t fd (Message.Fetch { table = "s"; lo = "s|"; hi = "s}"; subscriber = sub_addr })
           with
          | Message.Subscribed _ -> ()
          | _ -> Alcotest.fail "fetch+subscribe");
          let value = String.make 65_536 'x' in
          (* 8 MiB of pushes, far past what the socket buffers hold *)
          for i = 1 to 128 do
            let t0 = Unix.gettimeofday () in
            check_bool "write acked" true
              (is_ack (rpc t fd (Message.Put (Printf.sprintf "s|k%03d" i, value))));
            if Unix.gettimeofday () -. t0 > 1.0 then
              Alcotest.failf "write %d took %.2fs behind a stalled subscriber" i
                (Unix.gettimeofday () -. t0)
          done;
          let deadline = Unix.gettimeofday () +. 15.0 in
          let rec dropped () =
            match rpc t fd (Message.Sub_check { subscriber = sub_addr }) with
            | Message.Sub_ranges [] -> ()
            | _ ->
              if Unix.gettimeofday () > deadline then
                Alcotest.fail "stalled subscriber never dropped";
              Net_server.step ~timeout:0.05 t;
              dropped ()
          in
          dropped ();
          check_bool "stall counted as a timeout" true
            (Server.counter (Net_server.engine t) "net.client.timeouts" >= 1)))

(* The blocking client refuses to run inside a server loop step: a
   server reaches its peers only through its own transport. *)
let test_blocking_call_refused () =
  with_server ~joins:[] (fun t ->
      let client = Net_client.create ~host:"127.0.0.1" ~port:(Net_server.port t) () in
      let outcome = ref None in
      Net_server.add_ticker t (fun () ->
          if !outcome = None then
            outcome :=
              Some
                (match Net_client.call client Message.Stats_full with
                | _ -> "answered"
                | exception Invalid_argument _ -> "refused"
                | exception e -> Printexc.to_string e));
      Fun.protect
        ~finally:(fun () -> Net_client.close client)
        (fun () ->
          Net_server.step ~timeout:0.0 t;
          Alcotest.(check (option string)) "call inside a step" (Some "refused") !outcome))

(* Refetching the same range as the same subscriber must reuse the live
   subscription entry, not stack a duplicate (finding: unbounded subs
   growth under eviction-driven refetch). Sub_check reports the table. *)
let test_fetch_dedup () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* populate before subscribing: later writes in the range would
             trigger a real push to the (unreachable) subscriber address *)
          check_bool "seed put" true (is_ack (rpc t fd (Message.Put ("p|a|1", "v"))));
          let fetch () =
            rpc t fd (Message.Fetch { table = "p"; lo = "p|"; hi = "p}"; subscriber = "198.51.100.9:9" })
          in
          (match fetch () with
          | Message.Subscribed { pairs = [ ("p|a|1", "v") ]; _ } -> ()
          | _ -> Alcotest.fail "first fetch");
          (match fetch () with
          | Message.Subscribed { pairs = [ ("p|a|1", "v") ]; _ } -> ()
          | _ -> Alcotest.fail "refetch");
          (match rpc t fd (Message.Sub_check { subscriber = "198.51.100.9:9" }) with
          | Message.Sub_ranges [ ("p", "p|", "p}") ] -> ()
          | Message.Sub_ranges ranges ->
            Alcotest.failf "expected one deduplicated subscription, got %d" (List.length ranges)
          | _ -> Alcotest.fail "sub_check response");
          (* an anonymous fetch (empty subscriber) installs nothing *)
          (match rpc t fd (Message.Fetch { table = "p"; lo = "p|"; hi = "p}"; subscriber = "" }) with
          | Message.Subscribed _ -> ()
          | _ -> Alcotest.fail "anonymous fetch");
          match rpc t fd (Message.Sub_check { subscriber = "" }) with
          | Message.Sub_ranges [] -> ()
          | _ -> Alcotest.fail "anonymous fetch must not subscribe"))

(* Placement planning: ungoverned tables stay local, partial coverage
   is a surfaced gap (never silently present-and-empty), and fetch
   clamps carry only the intersections homed elsewhere. Wildcard (shard
   slice) entries govern every table no specific entry names, with
   their component-space bounds instantiated into key space. *)
let test_remote_plan () =
  let route table lo hi home =
    { Message.de_table = table; de_lo = lo; de_hi = hi; de_home = home; de_replicas = [] }
  in
  let self = "me:1" in
  let plan routes =
    match Directory.pin routes with
    | Ok dir -> Remote.plan dir ~self
    | Error e -> Alcotest.fail e
  in
  let split = [ route "p" "p|" "p|m" "h1:1"; route "p" "p|m" "p}" "h2:1" ] in
  (match plan split ~table:"q" ~lo:"q|" ~hi:"q}" with
  | `Unrouted -> ()
  | _ -> Alcotest.fail "unrouted table");
  (match plan split ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (r1, "p|a", "p|m"); (r2, "p|m", "p|z") ]
    when r1.Message.de_home = "h1:1" && r2.Message.de_home = "h2:1" ->
    ()
  | _ -> Alcotest.fail "split fetch clamps");
  let gappy = [ route "p" "p|" "p|m" "h1:1"; route "p" "p|n" "p}" "h2:1" ] in
  (match plan gappy ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Gap -> ()
  | _ -> Alcotest.fail "uncovered middle must be a gap");
  (match plan gappy ~table:"p" ~lo:"p|a" ~hi:"p|b" with
  | `Fetch [ (_, "p|a", "p|b") ] -> ()
  | _ -> Alcotest.fail "fully covered prefix");
  (* a locally-homed route covers its part but yields no clamp *)
  let mixed = [ route "p" "p|" "p|m" self; route "p" "p|m" "p}" "h2:1" ] in
  (match plan mixed ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (r, "p|m", "p|z") ] when r.Message.de_home = "h2:1" -> ()
  | _ -> Alcotest.fail "local coverage must not be fetched");
  (* wildcard slices: this server owns [, m) of every table *)
  let shards = [ route "*" "" "m" self; route "*" "m" "" "h2:1" ] in
  (match plan shards ~table:"q" ~lo:"q|a" ~hi:"q|z" with
  | `Fetch [ (r, "q|m", "q|z") ] when r.Message.de_home = "h2:1" -> ()
  | _ -> Alcotest.fail "wildcard slice clamps");
  (match plan shards ~table:"q" ~lo:"q|a" ~hi:"q|b" with
  | `Fetch [] -> ()
  | _ -> Alcotest.fail "own wildcard slice must not be fetched");
  (match plan shards ~table:"q" ~lo:"q|" ~hi:"q}" with
  | `Fetch [ (r, "q|m", "q}") ] when r.Message.de_home = "h2:1" -> ()
  | _ -> Alcotest.fail "whole table under wildcards");
  (* a table named by a specific entry is governed only by it *)
  match plan (shards @ [ route "p" "p|" "p}" "h1:1" ]) ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (r, "p|a", "p|z") ] when r.Message.de_home = "h1:1" -> ()
  | _ -> Alcotest.fail "specific entries win over wildcards"

(* Table "*" names the shard layer's internal wildcard entries: outside
   input — a --partition spec, a Dir_update — must not smuggle one in
   (it would govern every table, join outputs included, with a range no
   key falls in). *)
let test_wildcard_rejected () =
  (match Directory.of_specs ~peers:[] ~self:"me:1" [ "*@127.0.0.1:9" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "--partition '*@HOST:PORT' must be refused");
  (match Directory.of_specs ~peers:[] ~self:"me:1" [ "*:a:b" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "--partition '*:LO:HI' must be refused");
  with_server ~joins:[] (fun t ->
      Net_server.set_directory t ~dir:(Directory.create ()) ~self_addr:"127.0.0.1:1" ();
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let update table =
            rpc t fd
              (Message.Dir_update
                 { epoch = 1;
                   entries =
                     [ { Message.de_table = table; de_lo = "a"; de_hi = "m";
                         de_home = "127.0.0.1:9"; de_replicas = [] } ] })
          in
          (match update "*" with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "Dir_update with table \"*\" must be refused");
          match rpc t fd Message.Dir_get with
          | Message.Dir_state { epoch = 0; entries = [] } -> ()
          | _ -> Alcotest.fail "a refused Dir_update must leave the directory alone"))

let () =
  Alcotest.run "net"
    [
      ( "tcp-server",
        [
          Alcotest.test_case "basic session" `Quick test_basic_session;
          Alcotest.test_case "one-way notify" `Quick test_oneway_notify;
          Alcotest.test_case "runtime joins" `Quick test_runtime_join_installation;
          Alcotest.test_case "two clients" `Quick test_two_clients;
          Alcotest.test_case "garbage input" `Quick test_garbage_input;
          Alcotest.test_case "put_batch pipelined" `Quick test_put_batch_pipelined;
          Alcotest.test_case "push to a stalled subscriber" `Quick
            test_push_never_blocks;
          Alcotest.test_case "blocking call inside a step refused" `Quick
            test_blocking_call_refused;
          Alcotest.test_case "fetch dedup" `Quick test_fetch_dedup;
        ] );
      ( "routes",
        [
          Alcotest.test_case "plan coverage" `Quick test_remote_plan;
          Alcotest.test_case "wildcard table refused" `Quick test_wildcard_rejected;
        ] );
    ]
