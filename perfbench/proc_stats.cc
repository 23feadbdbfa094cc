#include "proc_stats.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

namespace gemrec::perfbench {

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> ListThreads() {
  std::vector<pid_t> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
  }
  ::closedir(dir);
  return tids;
}

int64_t ThreadCpuNs(pid_t tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/schedstat";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  long long on_cpu_ns = 0;
  if (std::fscanf(f, "%lld", &on_cpu_ns) != 1) on_cpu_ns = 0;
  std::fclose(f);
  return on_cpu_ns;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

ThreadCpu SampleThreadCpu() {
  ThreadCpu sample;
  for (const pid_t tid : ListThreads()) sample[tid] = ThreadCpuNs(tid);
  return sample;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return cpu;
  // cpu user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[10] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got < 8) return cpu;
  for (int i = 0; i < 8; ++i) cpu.total += v[i];
  cpu.steal = v[7];
  return cpu;
}

double StealFraction(const HostCpu& before, const HostCpu& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / total;
}

}  // namespace gemrec::perfbench
