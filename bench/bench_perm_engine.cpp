// Figure 5 — permission-checking throughput of the standalone permission
// engine on a single core, for the two API calls the paper reports
// (insert_flow and read_statistics), across small / medium / large manifest
// complexity (1 / 5 / 15 tokens, 10-20 filters each), on an app behaviour
// trace with 5% violating calls.
//
// Paper's claim to reproduce: per-check latency < 1 microsecond at every
// complexity level; throughput decreases with manifest complexity.
//
// Hot-path layers measured separately (run with --benchmark_format=json to
// land the numbers in BENCH_perm_engine.json):
//   * BM_Fig5_*        — optimized compiled program (the paper's Figure 5
//                        workload, unchanged);
//   * BM_EngineCheck_* — full PermissionEngine::check (snapshot resolve +
//                        compiled program) on a recurring-flow trace (Hot,
//                        256 distinct calls) and the Figure-5 mostly-distinct
//                        trace (Cold).
#include <benchmark/benchmark.h>

#include "cbench/generator.h"
#include "core/engine/permission_engine.h"
#include "obs/metrics.h"

namespace {

using sdnshield::cbench::makeSyntheticManifest;
using sdnshield::cbench::makeSyntheticTrace;
using sdnshield::engine::CompiledPermissions;
using sdnshield::engine::PermissionEngine;
using sdnshield::perm::ApiCall;
using sdnshield::perm::ApiCallType;

constexpr std::size_t kTraceLength = 8192;
constexpr double kViolationRatio = 0.05;  // §IX-B.2.

std::vector<ApiCall> filterTrace(std::vector<ApiCall> trace,
                                 ApiCallType type) {
  std::erase_if(trace,
                [type](const ApiCall& call) { return call.type != type; });
  return trace;
}

/// state.range(0) = token count (manifest complexity).
void checkThroughput(benchmark::State& state, ApiCallType type) {
  std::size_t tokens = static_cast<std::size_t>(state.range(0));
  sdnshield::perm::Token primary =
      type == ApiCallType::kInsertFlow
          ? sdnshield::perm::Token::kInsertFlow
          : sdnshield::perm::Token::kReadStatistics;
  CompiledPermissions compiled(makeSyntheticManifest(tokens, 42, primary));
  std::vector<ApiCall> trace = filterTrace(
      makeSyntheticTrace(compiled.source(), kTraceLength, kViolationRatio, 7),
      type);
  std::size_t index = 0;
  std::uint64_t denied = 0;
  for (auto _ : state) {
    const ApiCall& call = trace[index];
    index = (index + 1) % trace.size();
    bool allowed = compiled.check(call).allowed;
    if (!allowed) ++denied;
    benchmark::DoNotOptimize(allowed);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["checks_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["denied_ratio"] =
      static_cast<double>(denied) / static_cast<double>(state.iterations());
}

void BM_Fig5_InsertFlowCheck(benchmark::State& state) {
  checkThroughput(state, ApiCallType::kInsertFlow);
}

void BM_Fig5_ReadStatisticsCheck(benchmark::State& state) {
  checkThroughput(state, ApiCallType::kReadStatistics);
}

// Small / medium / large manifests: 1 / 5 / 15 tokens (paper §IX-B.2).
BENCHMARK(BM_Fig5_InsertFlowCheck)->Arg(1)->Arg(5)->Arg(15);
BENCHMARK(BM_Fig5_ReadStatisticsCheck)->Arg(1)->Arg(5)->Arg(15);

/// Full mediator path (PermissionEngine::check): app-table snapshot load +
/// compiled program. `hotFlows` bounds the number of distinct calls cycled;
/// a small working set models recurring flows and stays cache-resident, the
/// full Figure-5 trace is the cold/adversarial case.
void engineCheckThroughput(benchmark::State& state, std::size_t hotFlows) {
  std::size_t tokens = static_cast<std::size_t>(state.range(0));
  constexpr sdnshield::of::AppId kApp = 7;
  PermissionEngine engine;
  auto manifest =
      makeSyntheticManifest(tokens, 42, sdnshield::perm::Token::kInsertFlow);
  engine.install(kApp, manifest);
  std::vector<ApiCall> trace =
      makeSyntheticTrace(manifest, kTraceLength, kViolationRatio, 7);
  if (hotFlows > 0 && trace.size() > hotFlows) trace.resize(hotFlows);
  for (ApiCall& call : trace) call.app = kApp;

  std::size_t index = 0;
  std::uint64_t denied = 0;
  for (auto _ : state) {
    const ApiCall& call = trace[index];
    index = (index + 1) % trace.size();
    bool allowed = engine.check(call).allowed;
    if (!allowed) ++denied;
    benchmark::DoNotOptimize(allowed);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["checks_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["denied_ratio"] =
      static_cast<double>(denied) / static_cast<double>(state.iterations());
}

void BM_EngineCheck_Hot(benchmark::State& state) {
  engineCheckThroughput(state, 256);  // Recurring flows.
}

void BM_EngineCheck_Cold(benchmark::State& state) {
  engineCheckThroughput(state, 0);  // Full mostly-distinct Figure-5 trace.
}

/// Same workload with metric recording globally disabled: the delta against
/// BM_EngineCheck_Hot is the price of the observability instrumentation
/// on the hot path (acceptance bound: within 3%).
void BM_EngineCheck_Hot_ObsOff(benchmark::State& state) {
  bool wasEnabled = sdnshield::obs::Registry::enabled();
  sdnshield::obs::Registry::setEnabled(false);
  engineCheckThroughput(state, 256);
  sdnshield::obs::Registry::setEnabled(wasEnabled);
}

BENCHMARK(BM_EngineCheck_Hot)->Arg(1)->Arg(5)->Arg(15);
BENCHMARK(BM_EngineCheck_Cold)->Arg(1)->Arg(5)->Arg(15);
BENCHMARK(BM_EngineCheck_Hot_ObsOff)->Arg(1)->Arg(5)->Arg(15);

/// Compilation cost (manifest -> checking program), for context: the paper
/// compiles at app load time, off the critical path.
void BM_ManifestCompilation(benchmark::State& state) {
  auto manifest =
      makeSyntheticManifest(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    CompiledPermissions compiled(manifest);
    benchmark::DoNotOptimize(compiled);
  }
}

BENCHMARK(BM_ManifestCompilation)->Arg(1)->Arg(5)->Arg(15);

/// The same compilation routed through the process-wide compiled-program
/// cache (DESIGN.md §14): after the first obtain() every iteration is a
/// lookup keyed on the set's canonical text — the cost a policy push pays
/// per already-seen grant shape.
void BM_ManifestCompilation_Cached(benchmark::State& state) {
  auto manifest =
      makeSyntheticManifest(static_cast<std::size_t>(state.range(0)), 42);
  auto& cache = sdnshield::engine::CompiledProgramCache::global();
  cache.clear();
  for (auto _ : state) {
    auto compiled = cache.obtain(manifest);
    benchmark::DoNotOptimize(compiled);
  }
  cache.clear();
}

BENCHMARK(BM_ManifestCompilation_Cached)->Arg(1)->Arg(5)->Arg(15);

}  // namespace
