#include "util/stopwatch.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

namespace distgnn {

double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
  return seconds_since({});
}

}  // namespace distgnn
