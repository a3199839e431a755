(** Where the benchmark's processes run, and keeping their CPUs awake.

    The benchmark runs on a small virtual machine on a shared host, and
    two things there moved the latencies between runs by more than any
    regression bound could allow, though neither depends on the
    program:

    - {b Halted CPUs.} A CPU with nothing to run halts, and waking it
      for the next request costs the hypervisor's wake-up latency,
      which follows the load on the rest of the host. At this
      benchmark's rates every CPU idles between requests, so a ~0.1 ms
      median round trip measured mostly the host's load: on one 2-core
      host, the check p50 of twip-warm read 0.11 ms in one run, 0.39 ms
      in the next, and 0.11 ms again once the CPUs were kept awake.
    - {b Placement.} The generator and the two servers floated over the
      CPUs, and where the scheduler put them decided how often the
      generator waited behind a server: the write p50 of twip-warm took
      one of two levels, ~0.12 and ~0.145 ms, from run to run, the
      higher one with a late generator.

    [start] forks one spinner per CPU the benchmark may use, pinned to
    it at [SCHED_IDLE] priority. A spinner runs only when nothing else
    is runnable on its CPU, and a woken server or generator preempts it
    at once, so the CPU never halts and no measured process waits
    behind it. [start] then pins the benchmark itself (the generator)
    to the first CPU, and {!on_server_cpu} starts the servers on the
    last: in four alternating pairs of runs, the write p50 of twip-warm
    read 0.119–0.125 ms pinned and 0.135–0.148 ms floating. On a single
    CPU everything shares it. Spinners die with the benchmark
    ([PR_SET_PDEATHSIG]); [stop] kills and reaps them. *)

external cpus : unit -> int array = "twipbench_host_cpus"
external spin : int -> unit = "twipbench_host_spin"
external pin : int -> unit = "twipbench_host_pin"

type t = { spinners : int list; first : int; last : int }

let start () =
  let cpus = cpus () in
  let spinners =
    Array.to_list cpus
    |> List.map (fun cpu ->
           match Unix.fork () with
           | 0 ->
             spin cpu;
             exit 0
           | pid -> pid)
  in
  let first = cpus.(0) and last = cpus.(Array.length cpus - 1) in
  pin first;
  { spinners; first; last }

(** [f ()] with this process pinned to the servers' CPU, so that a
    server it forks runs there; this process returns to its own CPU
    after. *)
let on_server_cpu t f =
  pin t.last;
  Fun.protect ~finally:(fun () -> pin t.first) f

let stop t =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    t.spinners
