// perfbench: the serve-stack benchmark.
//
//   perfbench --workload wire_single|wire_fanin|market_churn --seed N
//             --seconds S --trace 0|1
//
// Runs the stack `sdnshield serve` builds (see stack.h) in this process,
// drives it from a single-threaded epoll client over loopback TCP (see
// loadgen.h), checks every answer with an exact oracle, and prints a report
// followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced half
// and a traced half and reports the per-layer metrics. Exits 1 when any
// oracle fails, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine/permission_engine.h"
#include "core/lang/policy_parser.h"
#include "market/journal.h"
#include "obs/metrics.h"

#include "inputs.h"
#include "loadgen.h"
#include "replay.h"
#include "stack.h"
#include "stats.h"
#include "tracing.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace sd = sdnshield;

/// Timed segments of an end-to-end run, each on a fresh set-up.
constexpr int kSegments = 5;
/// setup_s is the median of this many set-ups: the segments' and as many
/// more set-ups that are torn down untimed.
constexpr std::size_t kSetupSamples = 15;
/// Operator period. A 256-app push takes about 8 ms on a 4-vCPU box. At a
/// 50 ms period pushes covered about 16% of the run, so the packet-in p90
/// fell among the probes delayed by a push and swung from run to run (105
/// to 135 us while the p50 stayed within 85 to 90 us). At 200 ms pushes
/// cover under 10% of the run and their cost shows in the p99.
constexpr std::int64_t kPushPeriodNs = 200'000'000;
constexpr std::size_t kSpanCapacity = 1u << 19;
constexpr std::size_t kReplayPolicies = 24;

struct Args {
  Workload workload = Workload::kWireSingle;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      auto workload = parseWorkload(value);
      if (!workload) return std::nullopt;
      args.workload = *workload;
      haveWorkload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return std::nullopt;
    }
  }
  if (!haveWorkload || !(args.seconds > 0)) return std::nullopt;
  return args;
}

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Report lines, and the metrics the JSON line may publish. A withheld
/// metric (a percentile short of samples beyond it, a ratio over zero) is
/// printed with its base counts but never published.
class Report {
 public:
  /// One report line; @p base describes sample counts / numerator and
  /// denominator.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& base) {
    print(name, value, unit, base);
    metrics_.push_back({name, value, unit});
  }
  void addPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit) {
    char base[96];
    std::snprintf(base, sizeof(base), "(n=%zu, beyond=%zu%s)", p.n, p.beyond,
                  p.ok ? "" : ", WITHHELD: fewer than 10 samples beyond");
    if (p.ok) {
      add(name, p.value, unit, base);
    } else {
      print(name, p.value, unit, base);
    }
  }
  void addRatio(const std::string& name, double num, double den,
                const std::string& unit, const char* numName,
                const char* denName) {
    char base[160];
    std::snprintf(base, sizeof(base), "(%s=%.0f / %s=%.0f%s)", numName, num,
                  denName, den, den == 0 ? ", WITHHELD: zero denominator" : "");
    if (den != 0) {
      add(name, num / den, unit, base);
    } else {
      print(name, 0, unit, base);
    }
  }

  void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::string>& names) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const std::string& name : names) {
      auto it = std::find_if(metrics_.begin(), metrics_.end(),
                             [&](const Metric& m) { return m.name == name; });
      if (it == metrics_.end()) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", it->name.c_str(), it->value,
                  it->unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  static void print(const std::string& name, double value,
                    const std::string& unit, const std::string& base) {
    std::printf("metric %-36s %14.4f %-6s %s\n", name.c_str(), value,
                unit.c_str(), base.c_str());
  }

  std::vector<Metric> metrics_;
};

// --- live run -----------------------------------------------------------------

struct PushSample {
  bool fresh = false;
  bool ok = false;
  std::uint64_t epochDelta = 0;
  double latencyMs = 0;   ///< From when the push was due.
  double latenessMs = 0;  ///< Start minus due.
};

/// Open-loop operator: one AppMarket::updatePolicy every kPushPeriodNs,
/// alternating a fresh seeded policy and a repeat of the one in force.
class Operator {
 public:
  Operator(sd::market::AppMarket& market, sd::engine::PermissionEngine& engine,
           PolicyGenerator& policies, std::string inForce)
      : market_(market),
        engine_(engine),
        policies_(policies),
        inForce_(std::move(inForce)) {}
  ~Operator() { stop(); }

  void start(std::int64_t t0, std::int64_t endNs) {
    thread_ = std::thread([this, t0, endNs] { loop(t0, endNs); });
  }
  void stop() {
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<PushSample>& samples() const { return samples_; }

 private:
  void loop(std::int64_t t0, std::int64_t endNs) {
    for (std::int64_t k = 0;; ++k) {
      std::int64_t due = t0 + k * kPushPeriodNs;
      if (due >= endNs) break;
      std::int64_t now = nowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      PushSample sample;
      sample.fresh = k % 2 == 0;
      std::string text = sample.fresh ? policies_.next() : inForce_;
      std::uint64_t epochBefore = engine_.epoch();
      std::int64_t start = nowNs();
      sample.ok = market_.updatePolicy(text).ok();
      std::int64_t end = nowNs();
      sample.epochDelta = engine_.epoch() - epochBefore;
      sample.latencyMs = static_cast<double>(end - due) / 1e6;
      sample.latenessMs = static_cast<double>(start - due) / 1e6;
      if (sample.fresh && sample.ok) inForce_ = std::move(text);
      samples_.push_back(sample);
    }
  }

  sd::market::AppMarket& market_;
  sd::engine::PermissionEngine& engine_;
  PolicyGenerator& policies_;
  std::string inForce_;
  std::vector<PushSample> samples_;
  std::thread thread_;
};

struct LiveRun {
  std::vector<double> setupS;
  PhaseResult warm;                   ///< Warm-ups, merged.
  PhaseResult timed;                  ///< Timed segments, merged.
  std::vector<PhaseResult> segments;  ///< Timed segments.
  double seconds = 0;
  sd::obs::Snapshot before, after;
  ProcessUsage usageBefore, usageAfter;
  std::vector<PushSample> pushes;
  std::size_t switchesMaxPerShard = 0, switchesMinPerShard = 0;
  std::vector<StealTrace> steal;      ///< Host steal, per timed segment.
  double stealMs = 0;  ///< Host steal over the timed segments.
  std::uint64_t auditDenied = 0;
  bool recoveredDigestEqual = true;
  std::vector<std::string> errors;
  // Traced run only.
  std::vector<std::uint8_t> capturedBytes;
  std::vector<CapturedFlowMod> capturedFlowMods;
  sd::perm::PermissionSet l2Grant;

  std::uint64_t pushFailures() const {
    std::uint64_t failed = 0;
    for (const auto& p : pushes) failed += !p.ok || p.epochDelta != 1;
    return failed;
  }
  /// Operations: probes and policy pushes.
  std::uint64_t attempted() const {
    return warm.sent + timed.sent + pushes.size();
  }
  std::uint64_t failed() const {
    return warm.failed() + timed.failed() + pushFailures();
  }
  /// Whole-run oracles besides the per-operation ones.
  bool checksOk() const {
    return errors.empty() && auditDenied == 0 && recoveredDigestEqual;
  }
};

std::int64_t warmupNs(Workload workload) {
  return workload == Workload::kWireFanin ? 1'000'000'000 : 500'000'000;
}

void accumulate(PhaseResult& into, const PhaseResult& from) {
  into.sent += from.sent;
  into.answered += from.answered;
  into.answeredByDeadline += from.answeredByDeadline;
  into.floods += from.floods;
  into.failedProbes += from.failedProbes;
  into.strayFailures += from.strayFailures;
  into.lateAnswers += from.lateAnswers;
  for (const auto& [failure, count] : from.failures) {
    into.failures[failure] += count;
  }
  into.answers.insert(into.answers.end(), from.answers.begin(),
                      from.answers.end());
}

/// One set-up: a fresh stack with every switch connected and every host
/// announced, ready for probes.
struct Rig {
  explicit Rig(std::uint64_t seed)
      : marketInputs(makeMarketInputs(seed)), policies(seed) {}

  MarketInputs marketInputs;
  PolicyGenerator policies;
  std::string initialPolicy;
  std::unique_ptr<ServeStack> stack;
  std::unique_ptr<LoadGen> loadgen;
  double setupS = 0;  ///< Stack start to the last announcement answered.
};

/// Sets a rig up; on failure returns null and appends to @p errors.
std::unique_ptr<Rig> setUp(const Args& args, const Inputs& inputs,
                           SpanTable* spans, std::vector<std::string>& errors) {
  WorkloadShape shape = shapeOf(args.workload);
  auto rig = std::make_unique<Rig>(args.seed);
  std::int64_t start = nowNs();
  StackOptions options;
  options.shards = shape.shards;
  options.spans = spans;
  if (shape.market) {
    rig->initialPolicy = rig->policies.next();
    options.market = &rig->marketInputs;
    options.initialPolicy = rig->initialPolicy;
  }
  rig->stack = std::make_unique<ServeStack>(options);
  LoadgenOptions lgOptions;
  lgOptions.port = rig->stack->port();
  lgOptions.window = shape.window;
  lgOptions.spans = spans;
  rig->loadgen = std::make_unique<LoadGen>(inputs, lgOptions);
  std::string error;
  if (!rig->loadgen->connect(&error) ||
      !rig->stack->server().waitForSwitches(inputs.switches.size(),
                                            std::chrono::seconds(10)) ||
      !rig->loadgen->announce(&error)) {
    errors.push_back("setup: " +
                     (error.empty() ? "switch attach timed out" : error));
    return nullptr;
  }
  rig->setupS = static_cast<double>(nowNs() - start) / 1e9;
  return rig;
}

/// One live run in @p segments segments. Each segment sets the stack up
/// from scratch (timed: setup_s), warms it, then measures seconds/segments
/// with the operator pushing beside traffic on market_churn. Fresh stacks
/// re-place every thread, so the median over segments is steadier than one
/// long measurement of one placement.
LiveRun runLive(const Args& args, const Inputs& inputs, double seconds,
                int segments, SpanTable* spans) {
  LiveRun run;
  run.seconds = seconds;
  WorkloadShape shape = shapeOf(args.workload);
  std::int64_t segmentNs = static_cast<std::int64_t>(seconds * 1e9 / segments);

  for (int i = 0; i < segments; ++i) {
    std::unique_ptr<Rig> rig = setUp(args, inputs, spans, run.errors);
    if (!rig) return run;
    run.setupS.push_back(rig->setupS);
    ServeStack& stack = *rig->stack;
    LoadGen& loadgen = *rig->loadgen;

    std::vector<std::size_t> perShard(stack.shards().shardCount(), 0);
    for (const SwitchInputs& sw : inputs.switches) {
      ++perShard[stack.shards().router().shardOf(sw.dpid)];
    }
    run.switchesMaxPerShard =
        *std::max_element(perShard.begin(), perShard.end());
    run.switchesMinPerShard =
        *std::min_element(perShard.begin(), perShard.end());

    accumulate(run.warm, loadgen.run(warmupNs(args.workload)));

    if (i == 0) {
      run.before = sd::obs::Registry::global().snapshot();
      run.usageBefore = ProcessUsage::now();
    }
    std::unique_ptr<Operator> op;
    if (shape.market) {
      op = std::make_unique<Operator>(*stack.market(), stack.shield().engine(),
                                      rig->policies, rig->initialPolicy);
      std::int64_t t0 = nowNs();
      op->start(t0, t0 + segmentNs);
    }
    StealSampler sampler;
    PhaseResult timed = loadgen.run(segmentNs);
    run.steal.push_back(sampler.stop());
    run.stealMs += run.steal.back().between(timed.startNs, timed.endNs);
    if (op) {
      op->stop();
      run.pushes.insert(run.pushes.end(), op->samples().begin(),
                        op->samples().end());
    }
    if (i + 1 == segments) {
      run.usageAfter = ProcessUsage::now();
      run.after = sd::obs::Registry::global().snapshot();
    }
    accumulate(run.timed, timed);
    run.segments.push_back(std::move(timed));

    if (!loadgen.error().empty()) run.errors.push_back(loadgen.error());
    run.auditDenied += stack.controller().statsReport().auditDenied;
    if (shape.market) {
      // Replay the journal onto a fresh runtime: the recovered market must
      // hold exactly the live market's apps and grants.
      sd::ctrl::Controller controller;
      sd::iso::ShieldRuntime shield(controller);
      auto journal = std::make_shared<sd::market::MemoryJournal>(
          stack.market()->journal()->records());
      auto recovered = sd::market::AppMarket::recover(
          shield, sd::lang::parsePolicy(rig->initialPolicy),
          marketAppFactory(rig->marketInputs), journal);
      run.recoveredDigestEqual = run.recoveredDigestEqual &&
                                 recovered->digest() == stack.market()->digest();
      recovered.reset();
      shield.shutdown();
    }
    if (spans != nullptr) {
      run.capturedBytes = loadgen.capturedBytes();
      run.capturedFlowMods = loadgen.capturedFlowMods();
      if (auto compiled = stack.shield().engine().compiled(stack.l2App())) {
        run.l2Grant = compiled->source();
      }
    }
  }
  return run;
}

std::vector<double> latenciesUs(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.answers.size());
  for (const auto& answer : phase.answers) {
    out.push_back(static_cast<double>(answer.latencyNs) / 1e3);
  }
  return out;
}

/// Every timed segment cut into windows of about one second: each window's
/// latency percentiles (probes sent in it), throughput (probes completed in
/// it) and host steal. The run's figures are medians over the windows whose
/// steal is at most the median window's, at least half of them: a vCPU the
/// host takes away in the middle of a hand-off delays the probe by
/// milliseconds, which measures the host's other tenants, not the program.
/// The steal of every window is printed, so a host that is busy throughout
/// still shows.
struct Windowed {
  std::size_t windows = 0;
  std::size_t kept = 0;        ///< Windows the medians are taken over.
  double stealCut = 0;         ///< Median window steal share.
  std::size_t minSamples = 0;  ///< Fewest latencies in one kept window.
  Percentile p50, p90;         ///< Medians of the per-window percentiles.
  double rps = 0;              ///< Median of the per-window throughputs.
  bool ok = true;              ///< Every kept window had its samples.
  /// Per window, in run order.
  std::vector<double> p50s, rates, stealShares;
  std::vector<bool> isKept;
};

Windowed windowed(const LiveRun& run) {
  Windowed out;
  std::vector<std::vector<double>> latency;
  std::size_t perSegment = std::max<std::size_t>(
      1, static_cast<std::size_t>(run.seconds /
                                  static_cast<double>(run.segments.size())));
  double cpus = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t seg = 0; seg < run.segments.size(); ++seg) {
    const PhaseResult& phase = run.segments[seg];
    std::int64_t width = (phase.endNs - phase.startNs) /
                         static_cast<std::int64_t>(perSegment);
    std::size_t base = latency.size();
    latency.resize(base + perSegment);
    std::vector<double> done(perSegment, 0);
    auto windowOf = [&](std::int64_t ns) -> std::optional<std::size_t> {
      if (ns < phase.startNs || width <= 0) return std::nullopt;
      auto w = static_cast<std::size_t>((ns - phase.startNs) / width);
      return w < perSegment ? std::optional<std::size_t>(w) : std::nullopt;
    };
    for (const auto& answer : phase.answers) {
      if (auto w = windowOf(answer.sentNs)) {
        latency[base + *w].push_back(static_cast<double>(answer.latencyNs) / 1e3);
      }
      if (auto w = windowOf(answer.doneNs)) done[*w] += 1;
    }
    for (std::size_t w = 0; w < perSegment; ++w) {
      std::int64_t from = phase.startNs + static_cast<std::int64_t>(w) * width;
      out.rates.push_back(done[w] * 1e9 / static_cast<double>(width));
      out.stealShares.push_back(run.steal[seg].between(from, from + width) *
                                1e6 / (static_cast<double>(width) * cpus));
    }
  }
  out.windows = latency.size();
  out.stealCut = percentile(out.stealShares, 0.5).value;
  for (double share : out.stealShares) {
    out.isKept.push_back(share <= out.stealCut);
    out.kept += out.isKept.back();
  }

  std::vector<double> p50s, p90s, rates;
  out.minSamples = SIZE_MAX;
  for (std::size_t w = 0; w < out.windows; ++w) {
    Percentile p50 = percentile(latency[w], 0.5);
    out.p50s.push_back(p50.value);
    if (!out.isKept[w]) continue;
    Percentile p90 = percentile(latency[w], 0.9);
    out.minSamples = std::min(out.minSamples, latency[w].size());
    out.ok = out.ok && p50.ok && p90.ok;
    p50s.push_back(p50.value);
    p90s.push_back(p90.value);
    rates.push_back(out.rates[w]);
  }
  out.p50 = percentile(p50s, 0.5);
  out.p90 = percentile(p90s, 0.5);
  out.rps = percentile(rates, 0.5).value;
  return out;
}

void printMachine(const Args& args) {
  WorkloadShape shape = shapeOf(args.workload);
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  sd::iso::ShieldOptions shieldDefaults;
  sd::shard::ShardOptions shardDefaults;
  std::printf("machine nproc=%u affinity_cpus=%d compiler=\"%s\" build=%s "
              "cpu_pinning=%s\n",
              std::thread::hardware_concurrency(), affinity, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE,
              shardDefaults.pinThreads ? "shard-loops" : "none");
  std::printf("stack shards=%zu ksd_threads=%zu io_threads=%zu switches=%zu "
              "window=%zu announced_hosts=%zu unannounced_hosts=%zu market=%s\n",
              shape.shards, shieldDefaults.ksdThreads, shape.shards,
              shape.switches, shape.window, shape.announcedHosts,
              shape.unannouncedHosts, shape.market ? "256 apps" : "none");
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d transport=loopback-tcp\n",
              workloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
}

/// Oracle and push outcomes, as report lines; returns false on any failure.
bool reportCorrectness(const LiveRun& run, const char* label) {
  bool ok = run.checksOk() && run.failed() == 0;
  for (const std::string& error : run.errors) {
    std::printf("error %s: %s\n", label, error.c_str());
  }
  auto failures = [&](const PhaseResult& phase, const char* phaseName) {
    for (const auto& [failure, count] : phase.failures) {
      std::printf("failure %s %s %s=%llu\n", label, phaseName, toString(failure),
                  static_cast<unsigned long long>(count));
    }
  };
  failures(run.warm, "warmup");
  failures(run.timed, "timed");
  std::printf("oracle %s probes_sent=%llu answered=%llu floods=%llu "
              "failed_probes=%llu stray_failures=%llu late_answers=%llu "
              "audit_denied=%llu\n",
              label, static_cast<unsigned long long>(run.warm.sent + run.timed.sent),
              static_cast<unsigned long long>(run.warm.answered + run.timed.answered),
              static_cast<unsigned long long>(run.warm.floods + run.timed.floods),
              static_cast<unsigned long long>(run.warm.failedProbes + run.timed.failedProbes),
              static_cast<unsigned long long>(run.warm.strayFailures + run.timed.strayFailures),
              static_cast<unsigned long long>(run.warm.lateAnswers + run.timed.lateAnswers),
              static_cast<unsigned long long>(run.auditDenied));
  if (!run.pushes.empty()) {
    std::size_t notOk = 0, badEpoch = 0;
    for (const auto& p : run.pushes) {
      notOk += !p.ok;
      badEpoch += p.epochDelta != 1;
    }
    std::printf("oracle %s pushes=%zu push_not_ok=%zu epoch_not_plus_one=%zu "
                "recovered_digest_equal=%s\n",
                label, run.pushes.size(), notOk, badEpoch,
                run.recoveredDigestEqual ? "true" : "false");
  }
  std::printf("shards %s switches_per_shard max=%zu min=%zu\n", label,
              run.switchesMaxPerShard, run.switchesMinPerShard);
  std::printf("host %s steal_ms=%.0f over %.1f s of timed segments\n", label,
              run.stealMs, run.seconds);
  std::printf("oracle %s failed_op_ratio=%.6f (failed=%llu / attempted=%llu)\n",
              label, ratio(static_cast<double>(run.failed()),
                           static_cast<double>(run.attempted())),
              static_cast<unsigned long long>(run.failed()),
              static_cast<unsigned long long>(run.attempted()));
  return ok;
}

void reportPushes(Report& report, const LiveRun& run) {
  std::vector<double> fresh, repeat, lateness;
  for (const auto& p : run.pushes) {
    (p.fresh ? fresh : repeat).push_back(p.latencyMs);
    lateness.push_back(p.latenessMs);
  }
  Percentile freshP50 = percentile(fresh, 0.5);
  report.addPercentile("push_fresh_p50_ms", freshP50, "ms");
  report.addPercentile("push_fresh_p90_ms", percentile(fresh, 0.9), "ms");
  report.addPercentile("push_repeat_p50_ms", percentile(repeat, 0.5), "ms");
  report.addPercentile("loadgen.push_lateness_p99_ms", percentile(lateness, 0.99), "ms");
}

// --- per-layer ------------------------------------------------------------------

struct StageSamples {
  std::vector<double> ingress, beforeCall, insertCall, deputyToClient,
      packetOutCall, handlerSelf, announcedTotal;
};

StageSamples stagesOf(const SpanTable& spans) {
  StageSamples s;
  auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (const ProbeSpans& p : spans.slots()) {
    if (p.sent == 0 || p.handlerIn == 0 || p.handlerOut == 0 ||
        p.packetOutRead == 0) {
      continue;
    }
    s.ingress.push_back(us(p.handlerIn - p.sent));
    std::int64_t self = p.handlerOut - p.handlerIn;
    if (p.outStart != 0) {
      s.packetOutCall.push_back(us(p.outEnd - p.outStart));
      self -= p.outEnd - p.outStart;
    }
    if (p.flowStart != 0 && p.flowModRead != 0) {
      s.beforeCall.push_back(us(p.flowStart - p.handlerIn));
      s.insertCall.push_back(us(p.flowEnd - p.flowStart));
      s.deputyToClient.push_back(us(p.flowModRead - p.flowStart));
      s.announcedTotal.push_back(us(p.flowModRead - p.sent));
      self -= p.flowEnd - p.flowStart;
    }
    s.handlerSelf.push_back(us(self));
  }
  return s;
}

int runEndToEnd(const Args& args, const Inputs& inputs) {
  LiveRun run = runLive(args, inputs, args.seconds, kSegments, nullptr);
  while (run.errors.empty() && run.setupS.size() < kSetupSamples) {
    std::unique_ptr<Rig> rig = setUp(args, inputs, nullptr, run.errors);
    if (rig) run.setupS.push_back(rig->setupS);
  }
  Report report;
  bool correct = reportCorrectness(run, "timed");
  std::vector<double> setup = run.setupS;
  std::string setups = "(median of " + std::to_string(setup.size()) +
                       " set-ups, seconds:";
  for (double s : run.setupS) {
    char one[32];
    std::snprintf(one, sizeof(one), " %.4f", s);
    setups.append(one);
  }
  setups.append(")");
  report.add("setup_s", percentile(setup, 0.5).value, "s", setups);
  std::vector<double> lat = latenciesUs(run.timed);
  Percentile p50 = percentile(lat, 0.5);
  Percentile p90 = percentile(lat, 0.9);
  Windowed win = windowed(run);
  char base[256];
  auto describe = [&](const Percentile& whole) {
    std::snprintf(base, sizeof(base),
                  "(median of the %zu of %zu windows with host steal <= %.2f%% "
                  "over %zu set-ups, min n per window=%zu%s; whole run %.3f "
                  "n=%zu)",
                  win.kept, win.windows, 100 * win.stealCut,
                  run.segments.size(), win.minSamples,
                  win.ok ? "" : ", WITHHELD: a window had fewer than 10 "
                                "samples beyond",
                  whole.value, whole.n);
    return std::string(base);
  };
  report.add("pktin_p50_us", win.p50.value, "us", describe(p50));
  report.add("pktin_p90_us", win.p90.value, "us", describe(p90));
  std::snprintf(base, sizeof(base),
                "(median of the %zu of %zu windows with host steal <= %.2f%%; "
                "whole run answered=%llu / seconds=%.3f)",
                win.kept, win.windows, 100 * win.stealCut,
                static_cast<unsigned long long>(run.timed.answeredByDeadline),
                run.seconds);
  report.add("pktin_rps", win.rps, "1/s", base);
  std::printf("windows p50_us/rps/steal%% (* = kept):");
  for (std::size_t w = 0; w < win.windows; ++w) {
    std::printf(" %.1f/%.0f/%.1f%s", win.p50s[w], win.rates[w],
                100 * win.stealShares[w], win.isKept[w] ? "*" : "");
  }
  std::printf("\n");
  if (!win.ok) correct = false;
  report.addRatio("failed_op_ratio", static_cast<double>(run.failed()),
                  static_cast<double>(run.attempted()), "ratio", "failed",
                  "attempted");
  if (!run.pushes.empty()) reportPushes(report, run);
  report.printJson(correct, run.attempted(), run.failed(),
                   {"setup_s", "pktin_p50_us", "pktin_p90_us", "pktin_rps"});
  return correct ? 0 : 1;
}

int runPerLayer(const Args& args, const Inputs& inputs) {
  WorkloadShape shape = shapeOf(args.workload);
  double half = args.seconds / 2;
  // Untraced half: end-to-end reference, registry deltas, process usage.
  LiveRun plain = runLive(args, inputs, half, 1, nullptr);
  bool correct = reportCorrectness(plain, "untraced");
  // Traced half: spans and captured inputs for the replays.
  SpanTable spans(kSpanCapacity);
  LiveRun traced = runLive(args, inputs, half, 1, &spans);
  correct = reportCorrectness(traced, "traced") && correct;

  Report report;
  const RegistryDelta d(plain.before, plain.after);
  double ops = static_cast<double>(plain.timed.sent);
  double pushes = static_cast<double>(plain.pushes.size());

  // process
  report.addRatio("proc.cpu_us_per_op",
                  plain.usageAfter.cpuUs - plain.usageBefore.cpuUs, ops, "us",
                  "cpu_us", "ops");
  report.addRatio("proc.ctxsw_per_op",
                  static_cast<double>(plain.usageAfter.contextSwitches -
                                      plain.usageBefore.contextSwitches),
                  ops, "count", "context_switches", "ops");
  std::vector<double> plainLat = latenciesUs(plain.timed);
  Percentile plainP50 = percentile(plainLat, 0.5);
  report.addPercentile("loadgen.pktin_p99_us", percentile(plainLat, 0.99), "us");
  if (!plain.pushes.empty()) reportPushes(report, plain);

  // net
  report.addRatio("net.frame_ns_mean",
                  static_cast<double>(d.histSum("net.server.frame_ns")),
                  static_cast<double>(d.histCount("net.server.frame_ns")), "ns",
                  "frame_ns_sum", "frames");
  // net.reactor.wakeups counts only Reactor::wake doorbells, so batching
  // shows as probes per reactor dispatch instead.
  report.addRatio("net.ops_per_dispatch", ops,
                  static_cast<double>(d.counter("net.reactor.dispatches")),
                  "count", "ops", "dispatches");
  report.addRatio("net.frames_sent_per_op",
                  static_cast<double>(d.counter("net.server.frames_sent")), ops,
                  "count", "frames_sent", "ops");
  FramerReplay framer = replayFramer(traced.capturedBytes);
  report.add("net.framer_decode_ns", framer.nsPerFrame, "ns",
             "(median of 9 passes, frames_per_pass=" +
                 std::to_string(framer.frames) + ")");

  // shard
  double calls = static_cast<double>(d.counter("shard.calls"));
  double posts = static_cast<double>(d.counter("shard.posts"));
  report.addRatio("shard.hops_per_op", calls + posts, ops, "count",
                  "calls+posts", "ops");
  report.addRatio("shard.inline_ratio",
                  static_cast<double>(d.counter("shard.inline")), calls + posts,
                  "ratio", "inline", "calls+posts");
  report.addRatio("shard.fences_per_push",
                  static_cast<double>(d.counter("shard.fences")), pushes, "count",
                  "fences", "pushes");
  report.add("shard.switches_max_per_shard",
             static_cast<double>(plain.switchesMaxPerShard), "count",
             "(shards=" + std::to_string(shape.shards) + ")");
  report.add("shard.switches_min_per_shard",
             static_cast<double>(plain.switchesMinPerShard), "count",
             "(shards=" + std::to_string(shape.shards) + ")");

  // controller
  report.addRatio("controller.dispatch_ns_mean",
                  static_cast<double>(d.histSum("controller.dispatch_ns")),
                  static_cast<double>(d.histCount("controller.dispatch_ns")),
                  "ns", "dispatch_ns_sum", "dispatches");
  report.addRatio("controller.dispatched_per_op",
                  static_cast<double>(d.counter("controller.dispatched")), ops,
                  "count", "dispatched", "ops");

  // apps + isolation (traced stages)
  StageSamples stages = stagesOf(spans);
  report.addPercentile("apps.handler_self_us_p50",
                       percentile(stages.handlerSelf, 0.5), "us");
  Percentile ingress = percentile(stages.ingress, 0.5);
  Percentile before = percentile(stages.beforeCall, 0.5);
  Percentile d2c = percentile(stages.deputyToClient, 0.5);
  report.addPercentile("isolation.ingress_us_p50", ingress, "us");
  report.addPercentile("isolation.app_before_call_us_p50", before, "us");
  report.addPercentile("isolation.insert_flow_call_us_p50",
                       percentile(stages.insertCall, 0.5), "us");
  report.addPercentile("isolation.deputy_to_client_us_p50", d2c, "us");
  report.addPercentile("isolation.packet_out_call_us_p50",
                       percentile(stages.packetOutCall, 0.5), "us");
  report.addRatio("isolation.container_task_ns_mean",
                  static_cast<double>(d.histSum("container.task_ns")),
                  static_cast<double>(d.histCount("container.task_ns")), "ns",
                  "task_ns_sum", "tasks");
  report.addRatio("isolation.ksd_call_ns_mean",
                  static_cast<double>(d.histSum("ksd.call_ns")),
                  static_cast<double>(d.histCount("ksd.call_ns")), "ns",
                  "call_ns_sum", "calls");
  report.addRatio("isolation.ksd_batch_mean",
                  static_cast<double>(d.histSum("ksd.batch_size")),
                  static_cast<double>(d.histCount("ksd.batch_size")), "count",
                  "requests", "batches");
  std::uint64_t drops = d.counter("container.event_drops");
  std::uint64_t deadline = d.counter("ksd.deadline_miss");
  std::uint64_t rejects = d.counter("ksd.queue_reject");
  std::uint64_t faults = d.counter("ksd.fault") + d.counter("container.faults");
  report.add("isolation.failures",
             static_cast<double>(drops + deadline + rejects + faults), "count",
             "(event_drops=" + std::to_string(drops) + " deadline_misses=" +
                 std::to_string(deadline) + " queue_rejects=" +
                 std::to_string(rejects) + " faults=" + std::to_string(faults) +
                 ")");

  // core/engine
  double hits = static_cast<double>(d.counter("engine.check.memo_hit"));
  double misses = static_cast<double>(d.counter("engine.check.memo_miss"));
  report.addRatio("engine.memo_hit_ratio", hits, hits + misses, "ratio",
                  "memo_hits", "memo_lookups");
  // The deputies call CompiledPermissions::check directly, so VM runs (not
  // memo lookups) count the checks on the packet path.
  report.addRatio("engine.vm_steps_per_check",
                  static_cast<double>(d.counter("engine.check.vm_steps")),
                  static_cast<double>(d.counter("engine.check.vm_runs")),
                  "count", "vm_steps", "vm_runs");
  EngineReplay engine = replayEngine(traced.l2Grant, traced.capturedFlowMods);
  report.addPercentile("engine.check_ns_hot", engine.hotNs, "ns");
  report.addPercentile("engine.check_ns_cold", engine.coldNs, "ns");
  std::uint64_t denied = d.counter("engine.check.denied");
  report.add("engine.denied", static_cast<double>(denied), "count",
             "(live checks; replay denied=" + std::to_string(engine.denied) + ")");
  double compileHits = static_cast<double>(d.counter("engine.compile.cache_hit"));
  double compileMisses =
      static_cast<double>(d.counter("engine.compile.cache_miss"));
  report.addRatio("engine.compile_hit_ratio", compileHits,
                  compileHits + compileMisses, "ratio", "compile_hits",
                  "obtains");
  if (denied != 0 || engine.denied != 0) correct = false;

  // market / core/reconcile / core/lang
  double fresh = static_cast<double>(d.counter("market.reconcile_fresh"));
  report.addRatio("market.reconcile_fresh_per_push", fresh, pushes, "count",
                  "fresh_reconciles", "pushes");
  report.addRatio("market.reconcile_hit_ratio",
                  static_cast<double>(d.counter("market.reconcile_cache_hits")),
                  static_cast<double>(d.counter("market.reconcile_units")),
                  "ratio", "unit_hits", "units");
  PolicyGenerator generator(args.seed);
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < kReplayPolicies; ++i) texts.push_back(generator.next());
  MarketReplay market = replayMarket(makeMarketInputs(args.seed), texts);
  report.addPercentile("lang.parse_policy_ms", market.parseMs, "ms");
  report.addPercentile("reconcile.unit_ms", market.reconcileUnitMs, "ms");
  report.addPercentile("engine.install_all_ms", market.installAllMs, "ms");
  if (!plain.pushes.empty()) {
    std::vector<double> freshMs;
    for (const auto& p : plain.pushes) {
      if (p.fresh) freshMs.push_back(p.latencyMs);
    }
    Percentile freshP50 = percentile(freshMs, 0.5);
    double attributed = market.parseMs.value +
                        market.reconcileUnitMs.value *
                            static_cast<double>(market.units) +
                        market.installAllMs.value;
    report.add("market.push_unattributed_ms", freshP50.value - attributed, "ms",
               "(push_fresh_p50 - parse - units*reconcile_unit - install_all; "
               "units=" + std::to_string(market.units) +
                   (freshP50.ok ? ")" : ", from a withheld push_fresh_p50)"));
  }

  // of
  report.addRatio("of.flowtable_installs_per_op",
                  static_cast<double>(d.counter("flowtable.installs")), ops,
                  "count", "installs", "ops");

  // tracing
  std::vector<double> tracedLat = latenciesUs(traced.timed);
  Percentile tracedP50 = percentile(tracedLat, 0.5);
  report.addPercentile("trace.pktin_p50_us", tracedP50, "us");
  report.add("trace.overhead_us", tracedP50.value - plainP50.value, "us",
             "(traced p50 - untraced p50 = " + std::to_string(tracedP50.value) +
                 " - " + std::to_string(plainP50.value) + ")");
  std::vector<double> announced = stages.announcedTotal;
  Percentile announcedP50 = percentile(announced, 0.5);
  double stageSum = ingress.value + before.value + d2c.value;
  report.add("trace.stage_sum_ratio", ratio(stageSum, announcedP50.value),
             "ratio",
             "(ingress+before_call+deputy_to_client p50s=" +
                 std::to_string(stageSum) + " / traced flow-mod p50=" +
                 std::to_string(announcedP50.value) + ", n=" +
                 std::to_string(announcedP50.n) + ")");

  std::uint64_t attempted = plain.attempted() + traced.attempted();
  std::uint64_t failed = plain.failed() + traced.failed();
  report.printJson(
      correct, attempted, failed,
      {"proc.cpu_us_per_op", "proc.ctxsw_per_op", "loadgen.pktin_p99_us",
       "net.frame_ns_mean", "net.ops_per_dispatch",
       "net.frames_sent_per_op", "net.framer_decode_ns", "shard.hops_per_op",
       "shard.inline_ratio", "shard.switches_max_per_shard", "shard.switches_min_per_shard",
       "controller.dispatch_ns_mean", "controller.dispatched_per_op",
       "apps.handler_self_us_p50", "isolation.ingress_us_p50",
       "isolation.app_before_call_us_p50", "isolation.insert_flow_call_us_p50",
       "isolation.deputy_to_client_us_p50", "isolation.packet_out_call_us_p50",
       "isolation.container_task_ns_mean", "isolation.ksd_call_ns_mean",
       "isolation.ksd_batch_mean", "isolation.failures",
       "engine.vm_steps_per_check", "engine.check_ns_hot",
       "engine.check_ns_cold", "engine.denied", "lang.parse_policy_ms",
       "reconcile.unit_ms", "engine.install_all_ms",
       "of.flowtable_installs_per_op", "trace.pktin_p50_us",
       "trace.overhead_us", "trace.stage_sum_ratio"});
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::parseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload wire_single|wire_fanin|"
                 "market_churn --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  perfbench::printMachine(*args);
  perfbench::Inputs inputs = perfbench::makeInputs(args->workload, args->seed);
  try {
    return args->trace ? perfbench::runPerLayer(*args, inputs)
                       : perfbench::runEndToEnd(*args, inputs);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
