(** The Twip op stream, its mapping onto wire requests, and the model of
    what every timeline must hold. The live generator and the layer
    replay both draw ops through {!stream} and map them with
    {!request}, so one seed gives both the same request sequence. *)

module Social_graph = Pequod_apps.Social_graph
module Workload = Pequod_apps.Workload
module Message = Pequod_proto.Message

let name = Social_graph.user_name
let timeline_lo u = "t|" ^ name u ^ "|"
let timeline_hi u = "t|" ^ name u ^ "}"
let post_key p time = Printf.sprintf "p|%s|%s" (name p) (Strkey.encode_time time)
let sub_key u p = Printf.sprintf "s|%s|%s" (name u) (name p)

let timeline_key u time p =
  Printf.sprintf "t|%s|%s|%s" (name u) (Strkey.encode_time time) (name p)

let tweet p time = Pequod_apps.Twip.tweet_text (name p) time

(* The data set — the graph and the preloaded posts — is fixed per
   workload, as a crawl sample would be; the run's seed draws the
   traffic: the active users, the op stream and the gate's sample.
   Runs with different seeds then differ in what a user does, not in
   which celebrities exist, and their figures spread less. *)
let dataset_seed = 42
let rng_ops seed = Rng.stream ~seed ~index:1
let rng_preload () = Rng.stream ~seed:dataset_seed ~index:2
let rng_gate seed = Rng.stream ~seed ~index:3

let graph (w : Workloads.t) =
  Social_graph.generate ~rng:(Rng.create dataset_seed) ~nusers:w.users
    ~avg_follows:Workloads.avg_follows ()

let stream (w : Workloads.t) ~seed ~graph =
  Workload.stream ~rng:(rng_ops seed) ~graph ~active_fraction:Workloads.active_fraction
    ~mix:w.mix ()

(** Every preloaded row: the graph's subscriptions, then
    [w.preload_posts] posts at times [0..n) by log-popularity posters. *)
let iter_preload (w : Workloads.t) ~graph f =
  for u = 0 to Social_graph.nusers graph - 1 do
    Social_graph.iter_following graph u (fun p -> f (sub_key u p) "1")
  done;
  let rng = rng_preload () in
  let posting = Rng.Alias.create (Social_graph.posting_weights graph) in
  for time = 0 to w.preload_posts - 1 do
    let p = Rng.Alias.sample posting rng in
    f (post_key p time) (tweet p time)
  done

(** Preloaded posters in time order, for the model. *)
let preload_posters (w : Workloads.t) ~graph =
  let rng = rng_preload () in
  let posting = Rng.Alias.create (Social_graph.posting_weights graph) in
  Array.init w.preload_posts (fun _ -> Rng.Alias.sample posting rng)

type dest = Home | Compute

(** Op classes: 0 login, 1 check, 2 subscribe, 3 post; the generator's
    freshness probes are class 4. *)
let class_of = function
  | Workload.Login _ -> 0
  | Workload.Check _ -> 1
  | Workload.Subscribe _ -> 2
  | Workload.Post _ -> 3

(** The client-side state the mapping keeps: when each user last read
    their timeline, and the newest post time issued. *)
type client = { last_seen : int array; mutable clock : int }

let client ~nusers ~clock = { last_seen = Array.make nusers (-1); clock }

(** A login scans the user's whole timeline; a check scans only what
    is newer than that user's previous read. Writes go to the home,
    reads to the compute. *)
let request c op =
  match op with
  | Workload.Login u ->
    c.last_seen.(u) <- c.clock;
    (Compute, Message.Scan { lo = timeline_lo u; hi = timeline_hi u })
  | Workload.Check u ->
    let since = c.last_seen.(u) + 1 in
    c.last_seen.(u) <- c.clock;
    ( Compute,
      Message.Scan
        { lo = timeline_lo u ^ Strkey.encode_time since; hi = timeline_hi u } )
  | Workload.Subscribe (u, p) -> (Home, Message.Put (sub_key u p, "1"))
  | Workload.Post (p, time) ->
    c.clock <- max c.clock time;
    (Home, Message.Put (post_key p time, tweet p time))

(** Order-sensitive digest of an op sequence: the replay proves it saw
    the same stream as the live run by matching it. *)
let digest_step acc op =
  let h =
    match op with
    | Workload.Login u -> Hashtbl.hash (0, u)
    | Workload.Check u -> Hashtbl.hash (1, u)
    | Workload.Subscribe (u, p) -> Hashtbl.hash (2, u, p)
    | Workload.Post (p, t) -> Hashtbl.hash (3, p, t)
  in
  ((acc * 1_000_003) + h) land max_int

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

(** What the cluster must hold: the graph plus every acknowledged
    subscribe and post. Writes whose outcome is unknown (an error or a
    lost connection) are kept apart: a timeline may or may not show
    them. *)
type model = {
  graph : Social_graph.t;
  posts : int list array;  (** per poster, times of known posts *)
  extra_follows : (int, int) Hashtbl.t;  (** user -> poster, acked subscribes *)
  unsure_posts : int list array;
  unsure_follows : (int, int) Hashtbl.t;
}

let model ~graph ~preload_posters =
  let n = Social_graph.nusers graph in
  let posts = Array.make n [] in
  Array.iteri (fun time p -> posts.(p) <- time :: posts.(p)) preload_posters;
  { graph; posts; extra_follows = Hashtbl.create 1024; unsure_posts = Array.make n [];
    unsure_follows = Hashtbl.create 16 }

let ack m = function
  | Workload.Subscribe (u, p) -> Hashtbl.add m.extra_follows u p
  | Workload.Post (p, t) -> m.posts.(p) <- t :: m.posts.(p)
  | Workload.Login _ | Workload.Check _ -> ()

let unsure m = function
  | Workload.Subscribe (u, p) -> Hashtbl.add m.unsure_follows u p
  | Workload.Post (p, t) -> m.unsure_posts.(p) <- t :: m.unsure_posts.(p)
  | Workload.Login _ | Workload.Check _ -> ()

let follows m u =
  let tbl = Hashtbl.create 16 in
  Social_graph.iter_following m.graph u (fun p -> Hashtbl.replace tbl p ());
  List.iter (fun p -> Hashtbl.replace tbl p ()) (Hashtbl.find_all m.extra_follows u);
  tbl

(** Check a scan of [u]'s whole timeline against the model: every
    certain entry present with the right value, nothing beyond the
    certain and the unsure entries. [Error] describes the first
    difference. *)
let check_timeline m u pairs =
  let got = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace got k v) pairs;
  let fl = follows m u in
  let expected = Hashtbl.create 256 in
  Hashtbl.iter
    (fun p () -> List.iter (fun t -> Hashtbl.replace expected (timeline_key u t p) (p, t)) m.posts.(p))
    fl;
  let allowed = Hashtbl.copy expected in
  let unsure_posters =
    Hashtbl.fold (fun p () acc -> p :: acc) fl [] @ Hashtbl.find_all m.unsure_follows u
  in
  List.iter
    (fun p ->
      let times = if Hashtbl.mem fl p then m.unsure_posts.(p) else m.posts.(p) @ m.unsure_posts.(p) in
      List.iter (fun t -> Hashtbl.replace allowed (timeline_key u t p) (p, t)) times)
    unsure_posters;
  let missing =
    Hashtbl.fold
      (fun k (p, t) acc ->
        match acc with
        | Some _ -> acc
        | None -> (
          match Hashtbl.find_opt got k with
          | None -> Some (Printf.sprintf "%s missing" k)
          | Some v when not (String.equal v (tweet p t)) ->
            Some (Printf.sprintf "%s has a wrong value" k)
          | Some _ -> None))
      expected None
  in
  match missing with
  | Some msg -> Error msg
  | None -> (
    match List.find_opt (fun (k, _) -> not (Hashtbl.mem allowed k)) pairs with
    | Some (k, _) -> Error (Printf.sprintf "%s is not in the model" k)
    | None -> Ok (List.length pairs))
