// Sample statistics and counter deltas for the benchmark report.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// A percentile with its sample count. Withheld (ok == false) when fewer
/// than kMinBeyond samples lie beyond it, so a tail is never published from
/// a handful of samples.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  bool ok = false;
};

/// Nearest-rank percentile of @p values, q in (0, 1).
Percentile percentile(std::vector<double> values, double q);

/// Registry snapshot delta: counters, histogram counts and sums by name.
class RegistryDelta {
 public:
  RegistryDelta(const sdnshield::obs::Snapshot& before,
                const sdnshield::obs::Snapshot& after)
      : before_(before), after_(after) {}

  std::uint64_t counter(const std::string& name) const;
  std::uint64_t histCount(const std::string& name) const;
  std::uint64_t histSum(const std::string& name) const;

 private:
  const sdnshield::obs::Snapshot& before_;
  const sdnshield::obs::Snapshot& after_;
};

/// Process CPU time and context switches (every thread, the generator
/// included).
struct ProcessUsage {
  double cpuUs = 0;
  std::uint64_t contextSwitches = 0;
  static ProcessUsage now();
};

/// Host CPU time stolen from this machine's vCPUs (/proc/stat), in ms: a
/// busy host shows here, not in the program's own counters.
double hostStealMs();

/// hostStealMs() samples over a span of steady-clock time.
struct StealTrace {
  std::vector<std::pair<std::int64_t, double>> samples;  ///< (ns, steal ms)
  /// Steal between two instants of the span, interpolated between samples.
  double between(std::int64_t fromNs, std::int64_t toNs) const;
};

/// Samples hostStealMs() every 20 ms on a thread of its own until stop().
class StealSampler {
 public:
  StealSampler();
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  StealTrace stop();

 private:
  StealTrace trace_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Zero when the denominator is zero.
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench
