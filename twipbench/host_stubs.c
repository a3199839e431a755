/* Idle-class spinners that keep the benchmark's CPUs out of the idle
   state (see host.ml). */
#define _GNU_SOURCE
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* The CPUs this process may run on. */
value twipbench_host_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0, i, j = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(Atom(0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  res = caml_alloc(n, 0);
  for (i = 0; i < CPU_SETSIZE && j < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, j++, Val_int(i));
  CAMLreturn(res);
}

/* Pin the calling thread, and the children it forks from now on, to
   [cpu]. */
value twipbench_host_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  sched_setaffinity(0, sizeof set, &set);
  return Val_unit;
}

/* Called in a freshly forked child: pin it to [cpu], drop it to
   SCHED_IDLE, have it die with its parent, and spin. */
value twipbench_host_spin(value cpu)
{
  cpu_set_t set;
  struct sched_param param = { 0 };
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  sched_setaffinity(0, sizeof set, &set);
  sched_setscheduler(0, SCHED_IDLE, &param);
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  for (;;) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
  }
  return Val_unit;
}
