// Sample statistics and /proc/self introspection for the benchmark.

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double BlockP99(const std::vector<double>& samples) {
  const size_t blocks = std::max<size_t>(1, samples.size() / kMinP99Samples);
  std::vector<double> p99s;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = samples.size() * b / blocks;
    const size_t end = samples.size() * (b + 1) / blocks;
    p99s.push_back(Quantile(
        std::vector<double>(samples.begin() + begin, samples.begin() + end),
        0.99));
  }
  return Median(p99s);
}

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmRSS:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::vector<int64_t> TaskIds() {
  std::vector<int64_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    out.push_back(std::strtoll(e->d_name, nullptr, 10));
  }
  closedir(dir);
  return out;
}

// utime + stime of one task in clock ticks (0 when it already exited).
double TaskCpuTicks(int64_t tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/stat";
  std::ifstream in(path);
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  const char* p = stat.c_str() + close + 1;
  double utime = 0.0;
  double stime = 0.0;
  for (int field = 3; field <= 15 && *p != '\0'; ++field) {
    while (*p == ' ') ++p;
    if (field == 14) utime = std::strtod(p, nullptr);
    if (field == 15) stime = std::strtod(p, nullptr);
    while (*p != ' ' && *p != '\0') ++p;
  }
  return utime + stime;
}

}  // namespace

int ThreadCount() { return static_cast<int>(TaskIds().size()); }

int64_t CurrentTid() { return static_cast<int64_t>(syscall(SYS_gettid)); }

double CpuSecondsExcluding(const std::vector<int64_t>& exclude) {
  double ticks = 0.0;
  for (int64_t tid : TaskIds()) {
    if (std::find(exclude.begin(), exclude.end(), tid) != exclude.end()) {
      continue;
    }
    ticks += TaskCpuTicks(tid);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace perfbench
