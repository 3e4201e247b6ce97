/* Monotonic nanosecond clock for the benchmark's timers: gettimeofday
   resolves only microseconds, too coarse for sub-10 us call latencies.
   The process CPU clock times ops, set-ups and the reference kernel:
   on a shared host it leaves out the time the benchmark spends
   preempted or stolen by the hypervisor, which the wall clock counts.
   The CPU-placement stubs let the reference-kernel child run on the CPU the
   benchmark itself was just running on (Linux; elsewhere no-ops). */
#define _GNU_SOURCE
#include <time.h>
#ifdef __linux__
#include <sched.h>
#endif
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

value perfbench_current_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_int(sched_getcpu());
#else
  return Val_int(-1);
#endif
}

value perfbench_pin_cpu(value cpu)
{
#ifdef __linux__
  if (Int_val(cpu) >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(Int_val(cpu), &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }
#else
  (void)cpu;
#endif
  return Val_unit;
}
