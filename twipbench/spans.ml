(** Spans recorded by the benchmark's own code around its calls into
    each layer: a name, start, end and parent, sharing an op id with
    the other spans of the same op. They are kept in memory and written
    out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;
  name : string;
  t0 : int;  (** ns, monotonic *)
  t1 : int;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : int list }

let create () = { spans = []; next = 1; stack = [] }

(** Record a finished span; returns its id. *)
let add t ~parent ~op name t0 t1 =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; op; name; t0; t1 } :: t.spans;
  id

(** Time [f ()] as a child of the innermost open {!with_span}. The id
    is reserved before [f] runs so nested spans can name it. *)
let with_span t ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let t0 = Clock.now_ns () in
  let finish () =
    let t1 = Clock.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; op; name; t0; t1 } :: t.spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc + b - max a reach, b))
      (0, lo) clipped
  in
  total

let children t =
  let tbl = Hashtbl.create 4096 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add tbl s.parent (s.t0, s.t1)) t.spans;
  tbl

(** Self time of every span: its duration minus the part its children
    cover. *)
let self_times t =
  let kids = children t in
  List.map (fun s -> (s, s.t1 - s.t0 - covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id)))
    t.spans

(** Share of [root]-named spans' total duration that their children
    cover (1.0 when the children tile every root). *)
let coverage t ~root =
  let kids = children t in
  let dur, cov =
    List.fold_left
      (fun (d, c) s ->
        if String.equal s.name root then
          (d + (s.t1 - s.t0), c + covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id))
        else (d, c))
      (0, 0) t.spans
  in
  if dur = 0 then 1.0 else float_of_int cov /. float_of_int dur

(** Per span name: count, total self ms, p50 and p99 self µs. *)
let self_table t =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let v =
        match Hashtbl.find_opt by_name s.name with
        | Some v -> v
        | None ->
          let v = Stat.vec () in
          Hashtbl.add by_name s.name v;
          v
      in
      Stat.push v (float_of_int self /. 1e3))
    (self_times t);
  Hashtbl.fold
    (fun name v acc ->
      let a = Stat.sorted v in
      let total = Array.fold_left ( +. ) 0.0 a in
      (name, Array.length a, total /. 1e3, Stat.quantile_sorted a 0.5, Stat.quantile_sorted a 0.99)
      :: acc)
    by_name []
  |> List.sort compare

(** Write the spans of every store in [ts] to [path], one JSON object
    per line, each store's oldest first. Span ids are unique within one
    store; the op ids of different stores do not overlap. *)
let write ts path =
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun store t ->
          List.iter
            (fun s ->
              Printf.fprintf oc
                "{\"store\": %d, \"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \
                 \"start_ns\": %d, \"end_ns\": %d}\n"
                store s.id s.parent s.op s.name s.t0 s.t1)
            (List.rev t.spans))
        ts)
