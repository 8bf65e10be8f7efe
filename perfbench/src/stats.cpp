#include "stats.h"

#include <sys/resource.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "tracing.h"

namespace perfbench {

Percentile percentile(std::vector<double> values, double q) {
  Percentile out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  std::size_t index = rank == 0 ? 0 : rank - 1;
  out.value = values[index];
  out.beyond = values.size() - 1 - index;
  out.ok = out.beyond >= Percentile::kMinBeyond;
  return out;
}

std::uint64_t RegistryDelta::counter(const std::string& name) const {
  const auto* after = after_.findCounter(name);
  const auto* before = before_.findCounter(name);
  return (after ? after->value : 0) - (before ? before->value : 0);
}

std::uint64_t RegistryDelta::histCount(const std::string& name) const {
  const auto* after = after_.findHistogram(name);
  const auto* before = before_.findHistogram(name);
  return (after ? after->count : 0) - (before ? before->count : 0);
}

std::uint64_t RegistryDelta::histSum(const std::string& name) const {
  const auto* after = after_.findHistogram(name);
  const auto* before = before_.findHistogram(name);
  return (after ? after->sum : 0) - (before ? before->sum : 0);
}

ProcessUsage ProcessUsage::now() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  ProcessUsage out;
  out.cpuUs = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
                  1e6 +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  out.contextSwitches = static_cast<std::uint64_t>(usage.ru_nvcsw) +
                        static_cast<std::uint64_t>(usage.ru_nivcsw);
  return out;
}

double hostStealMs() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  int fields = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                           &user, &nice, &system, &idle, &iowait, &irq,
                           &softirq, &steal);
  std::fclose(stat);
  if (fields != 8) return 0;
  return static_cast<double>(steal) * 1e3 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double StealTrace::between(std::int64_t fromNs, std::int64_t toNs) const {
  auto at = [this](std::int64_t ns) {
    auto it = std::lower_bound(
        samples.begin(), samples.end(), ns,
        [](const auto& sample, std::int64_t t) { return sample.first < t; });
    if (it == samples.begin()) return it == samples.end() ? 0.0 : it->second;
    if (it == samples.end()) return samples.back().second;
    const auto& [t0, v0] = *(it - 1);
    const auto& [t1, v1] = *it;
    return v0 + (v1 - v0) * static_cast<double>(ns - t0) /
                    static_cast<double>(t1 - t0);
  };
  return at(toNs) - at(fromNs);
}

StealSampler::StealSampler()
    : thread_([this] {
        while (true) {
          trace_.samples.emplace_back(nowNs(), hostStealMs());
          if (stopping_.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

StealSampler::~StealSampler() { stop(); }

StealTrace StealSampler::stop() {
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return std::move(trace_);
}

}  // namespace perfbench
