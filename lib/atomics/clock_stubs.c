/* Clock and scheduler primitives (Clock, Real_mem).
 *
 * clof_monotonic_ns: CLOCK_MONOTONIC in integer nanoseconds. Real_mem
 * deadlines ([now] / [await_until] / [try_acquire]) must be monotone
 * per thread and comparable across domains; Sys.time (process CPU
 * time) advances ~ncores faster than wall clock once several domains
 * spin, which inflates every deadline, and gettimeofday can step
 * backwards under NTP. Values fit 63-bit OCaml ints for ~292 years of
 * uptime.
 *
 * clof_thread_cpu_ns: CPU time consumed by the calling thread (one
 * OCaml domain), in integer nanoseconds. The checker reports a
 * scenario's cost with it: process CPU time would also count every
 * other domain of a parallel suite run.
 *
 * clof_sched_yield: politely hand the core to another runnable thread.
 * Spin loops call it once every few thousand iterations so an
 * oversubscribed run (more domains than cores - CI runners, laptops)
 * degrades to scheduler-quantum handovers instead of burning whole
 * timeslices next to the lock holder.
 */

#include <caml/mlvalues.h>

#if defined(_WIN32)
#include <windows.h>

CAMLprim value clof_monotonic_ns(value unit)
{
  static LARGE_INTEGER freq;
  LARGE_INTEGER now;
  if (freq.QuadPart == 0)
    QueryPerformanceFrequency(&freq);
  QueryPerformanceCounter(&now);
  return Val_long((intnat)((double)now.QuadPart * 1e9 / (double)freq.QuadPart));
}

CAMLprim value clof_thread_cpu_ns(value unit)
{
  FILETIME created, exited, kernel, user;
  ULARGE_INTEGER k, u;
  GetThreadTimes(GetCurrentThread(), &created, &exited, &kernel, &user);
  k.LowPart = kernel.dwLowDateTime;
  k.HighPart = kernel.dwHighDateTime;
  u.LowPart = user.dwLowDateTime;
  u.HighPart = user.dwHighDateTime;
  /* FILETIME counts 100 ns units */
  return Val_long((intnat)((k.QuadPart + u.QuadPart) * 100));
}

CAMLprim value clof_sched_yield(value unit)
{
  SwitchToThread();
  return Val_unit;
}

#else /* POSIX */

#include <time.h>
#include <sched.h>

CAMLprim value clof_monotonic_ns(value unit)
{
  struct timespec ts;
#if defined(CLOCK_MONOTONIC)
  clock_gettime(CLOCK_MONOTONIC, &ts);
#else
  clock_gettime(CLOCK_REALTIME, &ts);
#endif
  (void)unit;
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value clof_thread_cpu_ns(value unit)
{
  struct timespec ts;
#if defined(CLOCK_THREAD_CPUTIME_ID)
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
#else
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
#endif
  (void)unit;
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value clof_sched_yield(value unit)
{
  sched_yield();
  (void)unit;
  return Val_unit;
}

#endif
