#ifndef GEMREC_PERFBENCH_PROC_STATS_H_
#define GEMREC_PERFBENCH_PROC_STATS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <vector>

namespace gemrec::perfbench {

/// Kernel thread id of the calling thread.
pid_t CurrentTid();

/// Every thread of this process (/proc/self/task).
std::vector<pid_t> ListThreads();

/// On-CPU nanoseconds of one thread of this process, from
/// /proc/self/task/<tid>/schedstat; 0 once the thread has exited.
int64_t ThreadCpuNs(pid_t tid);

/// CPU nanoseconds of the whole process (every thread, live or exited).
int64_t ProcessCpuNs();

/// Per-thread CPU at one instant, for window deltas.
using ThreadCpu = std::map<pid_t, int64_t>;
ThreadCpu SampleThreadCpu();

/// Host-wide jiffies from the first line of /proc/stat: total across
/// all states and the hypervisor's `steal` share of them.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

/// Share of host CPU time stolen by the hypervisor between two samples.
double StealFraction(const HostCpu& before, const HostCpu& after);

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_PROC_STATS_H_
