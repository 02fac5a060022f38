/**
 * @file
 * CPU time of the calling thread, for ledgers that charge work to the
 * thread that did it: unlike wall time, it excludes preemption, sleeps
 * and blocking waits (pipes, locks).
 */

#ifndef GEMINI_COMMON_CPU_TIME_HH
#define GEMINI_COMMON_CPU_TIME_HH

#include <ctime>

namespace gemini::common {

/** CLOCK_THREAD_CPUTIME_ID of the calling thread, in seconds. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace gemini::common

#endif // GEMINI_COMMON_CPU_TIME_HH
