(* The placement (see directory.mli): the one ownership map every
   topology routes by — a live partition directory (authoritative at
   the seed, follower copies elsewhere), or one pinned at epoch 1 from
   static --partition specs or shard cuts. *)

module Message = Pequod_proto.Message
module Store = Pequod_store.Store

type entry = Message.dir_entry

type t = {
  mutable epoch : int;
  mutable entries : entry list; (* sorted (table, lo) *)
  pinned : bool;
}

let create () = { epoch = 0; entries = []; pinned = false }
let epoch t = t.epoch
let entries t = t.entries
let pinned t = t.pinned

(* A wildcard entry ([de_table = "*"]) covers the same slice of every
   table no specific entry names: its bounds live in component space
   (the part of the key after "T|"), [""] meaning the table's first or
   last key. The shard layer partitions the whole keyspace this way —
   one cut vector, every table. Instantiating against a concrete table
   maps the bounds into key space; the open lower bound starts at the
   bare table key, so every key of the table has an owner. *)
let wildcard = "*"
let is_wildcard (e : entry) = String.equal e.Message.de_table wildcard

let instantiate table (e : entry) =
  if not (is_wildcard e) then e
  else
    { e with
      Message.de_table = table;
      de_lo = (if e.Message.de_lo = "" then table else table ^ "|" ^ e.Message.de_lo);
      de_hi = (if e.Message.de_hi = "" then table ^ "}" else table ^ "|" ^ e.Message.de_hi) }

let compare_entry (a : entry) (b : entry) =
  match String.compare a.Message.de_table b.Message.de_table with
  | 0 -> String.compare a.Message.de_lo b.Message.de_lo
  | c -> c

let normalize entries =
  let sorted = List.sort compare_entry entries in
  (* coalesce adjacent ranges of one table with identical placement, so
     repeated migrations don't fragment the directory forever *)
  let rec go acc = function
    | [] -> List.rev acc
    | (e : entry) :: rest -> (
      match acc with
      | (p : entry) :: acc'
        when String.equal p.Message.de_table e.Message.de_table
             && String.equal p.Message.de_hi e.Message.de_lo
             && String.equal p.Message.de_home e.Message.de_home
             && p.Message.de_replicas = e.Message.de_replicas ->
        go ({ p with Message.de_hi = e.Message.de_hi } :: acc') rest
      | _ -> go (e :: acc) rest)
  in
  go [] sorted

(* structural validity; wildcard entries are the shard layer's internal
   placement and are refused in anything that came from outside *)
let check ~wildcards entries =
  let sorted = List.sort compare_entry entries in
  (* wildcard bounds compare in key space, against any one table *)
  let bounds e = instantiate "x" e in
  let rec go = function
    | [] -> Ok ()
    | (e : entry) :: rest ->
      let b = bounds e in
      if e.Message.de_table = "" then Error "directory entry with empty table"
      else if is_wildcard e && not wildcards then
        Error "table name \"*\" is reserved for the shard layer's internal placement"
      else if String.compare b.Message.de_lo b.Message.de_hi >= 0 then
        Error
          (Printf.sprintf "directory entry %s[%s,%s) is empty or inverted"
             e.Message.de_table e.Message.de_lo e.Message.de_hi)
      else if e.Message.de_home = "" then
        Error
          (Printf.sprintf "directory entry %s[%s,%s) has no home" e.Message.de_table
             e.Message.de_lo e.Message.de_hi)
      else
        match rest with
        | (n : entry) :: _
          when String.equal n.Message.de_table e.Message.de_table
               && String.compare (bounds n).Message.de_lo b.Message.de_hi < 0 ->
          Error
            (Printf.sprintf "directory entries overlap in table %s at %s"
               e.Message.de_table n.Message.de_lo)
        | _ -> go rest
  in
  go sorted

let validate entries = check ~wildcards:false entries

let pin entries =
  match check ~wildcards:true entries with
  | Error _ as e -> e
  | Ok () -> Ok { epoch = 1; entries = normalize entries; pinned = true }

let install t ~epoch ~entries =
  if t.pinned then Error "this server's placement is static (--partition or --shards)"
  else if epoch <= t.epoch then
    Error (Printf.sprintf "stale directory epoch %d (current is %d)" epoch t.epoch)
  else
    match validate entries with
    | Error _ as e -> e
    | Ok () ->
      t.epoch <- epoch;
      t.entries <- normalize entries;
      Ok ()

(* TABLE[:LO:HI][@HOST:PORT]; a bare TABLE covers the whole table,
   [T|, T}) in the repo's key order *)
let parse_spec ~peers ~self spec =
  let body, addr =
    match String.index_opt spec '@' with
    | Some i ->
      (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  let home =
    match (addr, peers) with
    | Some a, _ -> Ok a
    | None, [] -> Ok self (* no peers: this process is the home *)
    | None, [ p ] -> Ok p
    | None, _ :: _ :: _ ->
      Error
        (Printf.sprintf
           "partition %S: several --peer addresses; say which owns it with @HOST:PORT" spec)
  in
  let entry table lo hi de_home =
    { Message.de_table = table; de_lo = lo; de_hi = hi; de_home; de_replicas = [] }
  in
  match (home, String.split_on_char ':' body) with
  | (Error _ as e), _ -> e
  | _, (table :: _) when String.equal table wildcard ->
    Error (Printf.sprintf "partition %S: table name \"*\" is reserved" spec)
  | Ok h, [ table ] when table <> "" -> Ok (entry table (table ^ "|") (table ^ "}") h)
  | Ok h, [ table; lo; hi ] when table <> "" && String.compare lo hi < 0 ->
    Ok (entry table lo hi h)
  | Ok _, _ -> Error (Printf.sprintf "partition %S: expected TABLE or TABLE:LO:HI" spec)

let of_specs ~peers ~self specs =
  List.fold_left
    (fun acc spec ->
      match (acc, parse_spec ~peers ~self spec) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok es, Ok e -> Ok (e :: es))
    (Ok []) specs
  |> Result.map List.rev

let of_cuts ~cuts ~homes =
  pin
    (List.map2
       (fun (lo, hi) home ->
         { Message.de_table = wildcard; de_lo = lo; de_hi = hi; de_home = home;
           de_replicas = [] })
       (List.combine ("" :: cuts) (cuts @ [ "" ]))
       homes)

(* the entries governing [table], in key order: a table named by a
   specific entry is governed only by specific entries; wildcards cover
   the tables nothing else claims *)
let governing t ~table =
  match List.filter (fun (e : entry) -> String.equal e.Message.de_table table) t.entries with
  | _ :: _ as specific -> specific
  | [] ->
    List.filter_map
      (fun e -> if is_wildcard e then Some (instantiate table e) else None)
      t.entries

let entry_of t ~key =
  match t.entries with
  | [] -> None (* a plain server: nothing is governed, skip the table lookup *)
  | _ ->
    List.find_opt
      (fun (e : entry) ->
        String.compare e.Message.de_lo key <= 0 && String.compare key e.Message.de_hi < 0)
      (governing t ~table:(Store.table_name_of key))

let home_of t ~key = Option.map (fun (e : entry) -> e.Message.de_home) (entry_of t ~key)

let homes t =
  List.sort_uniq String.compare (List.map (fun (e : entry) -> e.Message.de_home) t.entries)

let serves (e : entry) ~self =
  String.equal e.Message.de_home self || List.mem self e.Message.de_replicas

let candidates (e : entry) ~self =
  match List.filter (fun a -> not (String.equal a self)) e.Message.de_replicas with
  | [] -> [ e.Message.de_home ]
  | reps ->
    let n = List.length reps in
    let start = Hashtbl.hash self mod n in
    List.init n (fun i -> List.nth reps ((start + i) mod n)) @ [ e.Message.de_home ]

let pieces t ~table ~lo ~hi =
  let rec go acc cursor = function
    | (e : entry) :: rest when String.compare cursor hi < 0 ->
      if String.compare e.Message.de_hi cursor <= 0 then go acc cursor rest
      else if String.compare hi e.Message.de_lo <= 0 then go acc cursor []
      else
        let acc, cursor =
          if String.compare cursor e.Message.de_lo < 0 then
            ((None, cursor, e.Message.de_lo) :: acc, e.Message.de_lo)
          else (acc, cursor)
        in
        let phi = if String.compare hi e.Message.de_hi < 0 then hi else e.Message.de_hi in
        go ((Some e, cursor, phi) :: acc) phi rest
    | _ ->
      List.rev (if String.compare cursor hi < 0 then (None, cursor, hi) :: acc else acc)
  in
  go [] lo (governing t ~table)

let scan_route t ~lo ~hi =
  let table = Store.table_name_of lo in
  if String.compare hi (table ^ "}") > 0 && List.exists is_wildcard t.entries then
    `Scatter (homes t)
  else `Pieces (pieces t ~table ~lo ~hi)

let merge_dedup a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | ((ka, _) as x) :: a', ((kb, _) as y) :: b' ->
      let c = String.compare ka kb in
      if c < 0 then go (x :: acc) a' b
      else if c > 0 then go (y :: acc) a b'
      else go (x :: acc) a' b'
  in
  go [] a b

let assign entries ~table ~lo ~hi ~home =
  if String.compare lo hi >= 0 then Error "empty migration range"
  else if home = "" then Error "empty destination address"
  else begin
    let overlapping, others =
      List.partition
        (fun (e : entry) ->
          String.equal e.Message.de_table table
          && String.compare e.Message.de_lo hi < 0
          && String.compare lo e.Message.de_hi < 0)
        entries
    in
    let overlapping = List.sort compare_entry overlapping in
    (* the range must be fully covered, by entries of a single current
       home: a migration moves data from one source server *)
    let cursor = ref lo in
    let gap = ref false in
    let sources = ref [] in
    List.iter
      (fun (e : entry) ->
        if String.compare !cursor e.Message.de_lo < 0 then gap := true;
        if String.compare !cursor e.Message.de_hi < 0 then cursor := e.Message.de_hi;
        if not (List.mem e.Message.de_home !sources) then
          sources := e.Message.de_home :: !sources)
      overlapping;
    if !gap || String.compare !cursor hi < 0 then
      Error (Printf.sprintf "range %s[%s,%s) is not fully covered by the directory" table lo hi)
    else
      match !sources with
      | [ _ ] ->
        let pieces =
          List.concat_map
            (fun (e : entry) ->
              let keep_left =
                if String.compare e.Message.de_lo lo < 0 then
                  [ { e with Message.de_hi = lo } ]
                else []
              in
              let keep_right =
                if String.compare hi e.Message.de_hi < 0 then
                  [ { e with Message.de_lo = hi } ]
                else []
              in
              keep_left @ keep_right)
            overlapping
        in
        let moved =
          { Message.de_table = table; de_lo = lo; de_hi = hi; de_home = home;
            de_replicas = [] }
        in
        Ok (normalize (moved :: pieces @ others))
      | srcs ->
        Error
          (Printf.sprintf "range %s[%s,%s) spans several homes (%s); migrate per home"
             table lo hi (String.concat ", " srcs))
  end

let add_replica entries ~table ~lo ~hi ~addr =
  if addr = "" then Error "empty replica address"
  else begin
    let touched = ref false in
    let conflict = ref false in
    let entries' =
      List.map
        (fun (e : entry) ->
          if
            String.equal e.Message.de_table table
            && String.compare e.Message.de_lo hi < 0
            && String.compare lo e.Message.de_hi < 0
          then begin
            touched := true;
            if String.equal e.Message.de_home addr then begin
              conflict := true;
              e
            end
            else if List.mem addr e.Message.de_replicas then e
            else { e with Message.de_replicas = e.Message.de_replicas @ [ addr ] }
          end
          else e)
        entries
    in
    if !conflict then
      Error (Printf.sprintf "%s is the home of part of %s[%s,%s)" addr table lo hi)
    else if not !touched then
      Error (Printf.sprintf "no directory entry overlaps %s[%s,%s)" table lo hi)
    else Ok (normalize entries')
  end

let to_lines t =
  Printf.sprintf "epoch %d, %d entries" t.epoch (List.length t.entries)
  :: List.map
       (fun (e : entry) ->
         Printf.sprintf "  %s[%s,%s) @ %s%s" e.Message.de_table e.Message.de_lo
           e.Message.de_hi e.Message.de_home
           (match e.Message.de_replicas with
           | [] -> ""
           | rs -> " replicas " ^ String.concat "," rs))
       t.entries
