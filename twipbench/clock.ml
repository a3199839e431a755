(** Monotonic clock, nanoseconds: latency and span timestamps need
    better than [Unix.gettimeofday], which is wall-clock and
    microsecond-grained. *)
external now_ns : unit -> int = "twipbench_now_ns" [@@noalloc]

(** The same clock, seconds. *)
let now_s () = float_of_int (now_ns ()) /. 1e9
