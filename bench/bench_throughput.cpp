// Figure 7 — end-to-end throughput pressure test, L2 learning switch
// scenario, original vs SDNShield-enabled controller, varying switch count.
// Every switch runs flow-arrival rounds back-to-back in parallel (CBench
// pressure mode).
//
// Two configurations:
//  * testbed-comparable: a 200us emulated switch<->controller control
//    channel (the paper measures across a physical network, where this
//    dominates). Claim to reproduce: SDNShield throughput within a few
//    percent of baseline.
//  * in-process stress: no channel at all — an upper bound that exposes the
//    raw thread-hand-off cost of the isolation architecture (quantified
//    further in bench_isolation_ablation). On a single-core host this cost
//    cannot be amortized and the gap is large by construction.
//
// --pressure compares the synchronous northbound (each packet-in blocks the
// app thread for a deputy round-trip) against the async pipelined one
// (insertFlowAsync/sendPacketOutAsync with a bounded in-flight window,
// deputy-side batch draining, vectorized flow-mod application). One JSON
// row per pipeline for EXPERIMENTS.md / CI schema validation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "apps/l2_learning.h"
#include "cbench/generator.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "shard/shard_runtime.h"
#include "switchsim/sim_network.h"

namespace {

using namespace sdnshield;
using namespace std::chrono_literals;

std::chrono::milliseconds g_duration = 1200ms;

struct RunConfig {
  std::size_t switches = 8;
  bool shielded = true;
  std::chrono::microseconds channelDelay = 200us;
  std::size_t ksdThreads = 4;
  /// 0 = synchronous northbound; >0 = app pipeline depth AND generator
  /// burst window (each switch keeps that many flow arrivals outstanding).
  std::size_t window = 0;
  /// 0 = no shard runtime (the pre-shard inline pipeline); >0 = route the
  /// controller through a shard::ShardRuntime with that many loops.
  std::size_t shards = 0;
};

cbench::ThroughputStats run(const RunConfig& config) {
  ctrl::Controller controller;
  std::unique_ptr<shard::ShardRuntime> runtime;
  if (config.shards > 0) {
    shard::ShardOptions shardOptions;
    shardOptions.shards = config.shards;
    runtime = std::make_unique<shard::ShardRuntime>(shardOptions);
    runtime->start();
    runtime->attach(controller);
  }
  sim::SimNetwork network(controller);
  network.buildLinear(config.switches);
  if (config.channelDelay.count() > 0) {
    for (const auto& sw : network.switches()) {
      sw->setControlChannelDelay(config.channelDelay);
    }
  }
  auto app = std::make_shared<apps::L2LearningSwitch>(
      /*rulePriority=*/10, /*pipelineWindow=*/config.window);

  std::unique_ptr<iso::BaselineRuntime> baseline;
  std::unique_ptr<iso::ShieldRuntime> shield;
  if (config.shielded) {
    iso::ShieldOptions options;
    options.ksdThreads = config.ksdThreads;  // Deputies scale out (§VI-A).
    shield = std::make_unique<iso::ShieldRuntime>(controller, options);
    shield->loadApp(app, lang::parsePermissions(app->requestedManifest()));
  } else {
    baseline = std::make_unique<iso::BaselineRuntime>(controller);
    baseline->loadApp(app);
  }
  cbench::Generator generator(network);
  generator.setup();
  cbench::ThroughputStats stats = generator.runThroughput(
      g_duration, config.window > 0 ? config.window : 1);
  app->drainPending();
  if (runtime) {
    shield.reset();  // Quiesce app/deputy producers before the detach.
    baseline.reset();
    runtime->detach(controller);
    runtime->stop();
  }
  return stats;
}

void table(const char* title, std::chrono::microseconds channelDelay) {
  std::printf("%s\n", title);
  std::printf("%-10s %-12s %16s %14s\n", "switches", "controller",
              "responses/sec", "total");
  for (std::size_t switches : {2u, 4u, 8u, 16u}) {
    double baselineRate = 0;
    for (bool shielded : {false, true}) {
      RunConfig config;
      config.switches = switches;
      config.shielded = shielded;
      config.channelDelay = channelDelay;
      cbench::ThroughputStats stats = run(config);
      if (!shielded) baselineRate = stats.responsesPerSec;
      std::printf("%-10zu %-12s %16.0f %14llu", switches,
                  shielded ? "SDNShield" : "baseline", stats.responsesPerSec,
                  static_cast<unsigned long long>(stats.totalResponses));
      if (shielded && baselineRate > 0) {
        std::printf("   (%.1f%% of baseline)",
                    100.0 * stats.responsesPerSec / baselineRate);
      }
      std::printf("\n");
    }
  }
}

int pressure() {
  std::printf("=== Pressure mode: sync vs async pipelined northbound "
              "(SDNShield, 200us channel) ===\n");
  std::printf("%-10s %-8s %8s %16s %14s\n", "pipeline", "window",
              "ksd", "responses/sec", "total");
  double syncRate = 0;
  for (std::size_t window : {std::size_t{0}, std::size_t{16}}) {
    RunConfig config;
    config.window = window;
    cbench::ThroughputStats stats = run(config);
    const char* pipeline = window > 0 ? "async" : "sync";
    if (window == 0) syncRate = stats.responsesPerSec;
    std::printf("%-10s %-8zu %8zu %16.0f %14llu", pipeline,
                window > 0 ? window : 1, config.ksdThreads,
                stats.responsesPerSec,
                static_cast<unsigned long long>(stats.totalResponses));
    if (window > 0 && syncRate > 0) {
      std::printf("   (%.2fx sync)", stats.responsesPerSec / syncRate);
    }
    std::printf("\n");
    std::printf(
        "{\"bench\":\"bench_throughput\",\"mode\":\"pressure\","
        "\"pipeline\":\"%s\",\"switches\":%zu,\"ksd_threads\":%zu,"
        "\"window\":%zu,\"responses_per_sec\":%.0f,\"total_responses\":%llu,"
        "\"duration_sec\":%.3f}\n",
        pipeline, config.switches, config.ksdThreads,
        window > 0 ? window : 1, stats.responsesPerSec,
        static_cast<unsigned long long>(stats.totalResponses),
        stats.durationSec);
  }
  std::printf(
      "\nExpected shape: the async pipeline keeps the app thread admitting "
      "packet-ins\nwhile the deputy pool works the backlog, so "
      "responses/sec should be at least\n2x the synchronous northbound at "
      "pool width >= 4.\n");
  return 0;
}

int shardsMode() {
  std::printf("=== Shards mode: async pipelined northbound behind the "
              "sharded controller substrate ===\n");
  std::printf("%-8s %-8s %8s %16s %14s\n", "shards", "window", "ksd",
              "responses/sec", "total");
  double oneShardRate = 0;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    RunConfig config;
    config.window = 16;
    config.shards = shards;
    cbench::ThroughputStats stats = run(config);
    if (shards == 1) oneShardRate = stats.responsesPerSec;
    std::printf("%-8zu %-8zu %8zu %16.0f %14llu", shards, config.window,
                config.ksdThreads, stats.responsesPerSec,
                static_cast<unsigned long long>(stats.totalResponses));
    if (shards > 1 && oneShardRate > 0) {
      std::printf("   (%.2fx one shard)", stats.responsesPerSec / oneShardRate);
    }
    std::printf("\n");
    std::printf(
        "{\"bench\":\"bench_throughput\",\"mode\":\"shards\","
        "\"pipeline\":\"async\",\"switches\":%zu,\"ksd_threads\":%zu,"
        "\"window\":%zu,\"shards\":%zu,\"responses_per_sec\":%.0f,"
        "\"total_responses\":%llu,\"duration_sec\":%.3f}\n",
        config.switches, config.ksdThreads, config.window, shards,
        stats.responsesPerSec,
        static_cast<unsigned long long>(stats.totalResponses),
        stats.durationSec);
  }
  std::printf(
      "\nExpected shape: on a multicore host responses/sec grows "
      "monotonically with the\nshard count (each shard owns its switches' "
      "dispatch); on a 1-vCPU\nrunner the shards time-slice "
      "one core and the curve is flat — the determinism\ndifferential "
      "(tests/shard_test.cpp) is the evidence that the routing itself is\n"
      "shape-preserving.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool pressureMode = false;
  bool shardsModeFlag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pressure") == 0) {
      pressureMode = true;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shardsModeFlag = true;
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      int ms = std::atoi(argv[++i]);
      if (ms <= 0) {
        std::fprintf(stderr, "bad --duration-ms value\n");
        return 1;
      }
      g_duration = std::chrono::milliseconds(ms);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--pressure] [--shards] [--duration-ms N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (shardsModeFlag) return shardsMode();
  if (pressureMode) return pressure();

  table(
      "=== Figure 7: L2 throughput, 200us emulated control channel "
      "(testbed-comparable) ===",
      200us);
  std::printf("\n");
  table(
      "=== In-process stress (no control channel): raw isolation cost upper "
      "bound ===",
      0us);
  std::printf(
      "\nExpected shape (paper): with a realistic control channel SDNShield "
      "throughput\nis within a few percent of the original controller at "
      "every switch count. The\nin-process table deliberately removes the "
      "channel: what remains is the thread\nhand-off cost itself.\n");
  return 0;
}
