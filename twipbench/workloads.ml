(** The benchmark's workloads. README.md says why each exists; the
    sizes here were tuned so that a full run fits the benchmark's time
    budget on a 2-core host while keeping every timing steady. *)

type t = {
  name : string;
  users : int;
  preload_posts : int;  (** posts loaded before the run, times [0..n) *)
  warm : bool;  (** setup logs in every active user *)
  mix : float * float * float * float;  (** login, subscribe, check, post *)
  durable : bool;  (** the home runs with [--data-dir] and [--sync never] *)
  rate : float;  (** nominal offered rate, ops/s *)
}

let paper_mix = Pequod_apps.Workload.mix_default
let write_mix = (0.05, 0.10, 0.60, 0.25)

let full =
  [ { name = "twip-warm"; users = 10_000; preload_posts = 20_000; warm = true;
      mix = paper_mix; durable = true; rate = 3000.0 };
    { name = "twip-cold"; users = 200_000; preload_posts = 200_000; warm = false;
      mix = paper_mix; durable = false; rate = 400.0 };
    { name = "twip-write"; users = 10_000; preload_posts = 20_000; warm = true;
      mix = write_mix; durable = true; rate = 800.0 } ]

(** Smoke sizes: the same shapes, small enough for a test to run all
    three workloads in seconds. *)
let tiny w =
  { w with users = 2_000; preload_posts = 5_000; rate = Float.min w.rate 300.0 }

let find ~tiny:small name =
  List.find_opt (fun w -> String.equal w.name name) full
  |> Option.map (fun w -> if small then tiny w else w)

(** Fraction of users that are active (log in, check, post). *)
let active_fraction = 0.7

(** Average follow count of the synthetic graph (the load harness's). *)
let avg_follows = 8
