// Figure 6 — end-to-end control-plane latency, original (baseline) vs
// SDNShield-enabled controller, in the two §IX-A scenarios:
//   (a) L2 learning switch: flow-arrival round trip (packet-in -> flow-mod +
//       packet-out observed at the destination host), varying switch count;
//   (b) ALTO + traffic engineering: ALTO update -> TE routing rules
//       installed.
// Each point: repeated measurements, median with 10th/90th percentiles (the
// paper's bars + error bars). The claim to reproduce: the SDNShield columns
// are nearly indistinguishable from baseline (tens of microseconds of
// overhead).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "apps/alto.h"
#include "apps/l2_learning.h"
#include "apps/traffic_engineering.h"
#include "cbench/generator.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "switchsim/sim_network.h"

namespace {

using namespace sdnshield;
using namespace std::chrono_literals;

constexpr std::size_t kL2Rounds = 100;   // Paper: 100 repetitions.
constexpr std::size_t kAltoRounds = 30;

struct Percentiles {
  double p10 = 0;
  double median = 0;
  double p90 = 0;
};

Percentiles percentiles(std::vector<double> samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double p) {
    return samples[static_cast<std::size_t>(p * (samples.size() - 1))];
  };
  out.p10 = at(0.1);
  out.median = at(0.5);
  out.p90 = at(0.9);
  return out;
}

cbench::LatencyStats runL2(std::size_t switches, bool shielded,
                           std::chrono::microseconds channelDelay = 0us) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(switches);
  if (channelDelay.count() > 0) {
    for (const auto& sw : network.switches()) {
      sw->setControlChannelDelay(channelDelay);
    }
  }
  auto app = std::make_shared<apps::L2LearningSwitch>();

  std::unique_ptr<iso::BaselineRuntime> baseline;
  std::unique_ptr<iso::ShieldRuntime> shield;
  if (shielded) {
    shield = std::make_unique<iso::ShieldRuntime>(controller);
    shield->loadApp(app, lang::parsePermissions(app->requestedManifest()));
  } else {
    baseline = std::make_unique<iso::BaselineRuntime>(controller);
    baseline->loadApp(app);
  }
  cbench::Generator generator(network);
  generator.setup();
  return generator.runLatency(kL2Rounds);
}

Percentiles runAltoTe(std::size_t switches, bool shielded) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(switches);
  auto alto = std::make_shared<apps::AltoService>();
  auto te = std::make_shared<apps::TrafficEngineeringApp>();

  std::unique_ptr<iso::BaselineRuntime> baseline;
  std::unique_ptr<iso::ShieldRuntime> shield;
  if (shielded) {
    shield = std::make_unique<iso::ShieldRuntime>(controller);
    shield->loadApp(alto, lang::parsePermissions(alto->requestedManifest()));
    shield->loadApp(te, lang::parsePermissions(te->requestedManifest()));
  } else {
    baseline = std::make_unique<iso::BaselineRuntime>(controller);
    baseline->loadApp(alto);
    baseline->loadApp(te);
  }

  std::vector<double> samplesUs;
  for (std::size_t round = 0; round < kAltoRounds; ++round) {
    std::uint64_t before = te->updatesProcessed();
    auto start = std::chrono::steady_clock::now();
    alto->publishUpdate();
    // The round completes when the TE app has reacted to the update (its
    // handler installs the refreshed routing rules before bumping the
    // counter's visibility here is adequate for both deployments).
    while (te->updatesProcessed() == before) {
      std::this_thread::yield();
    }
    auto elapsed = std::chrono::steady_clock::now() - start;
    samplesUs.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  return percentiles(samplesUs);
}

}  // namespace

int main() {
  std::printf("=== Figure 6a: L2 learning switch control-plane latency ===\n");
  std::printf("%-10s %-12s %12s %12s %12s %10s\n", "switches", "controller",
              "p10(us)", "median(us)", "p90(us)", "timeouts");
  for (std::size_t switches : {2u, 4u, 8u, 16u}) {
    for (bool shielded : {false, true}) {
      cbench::LatencyStats stats = runL2(switches, shielded);
      std::printf("%-10zu %-12s %12.1f %12.1f %12.1f %10zu\n", switches,
                  shielded ? "SDNShield" : "baseline", stats.p10Us,
                  stats.medianUs, stats.p90Us, stats.timeouts);
    }
  }

  // The paper's testbed measures across a physical control channel (plus a
  // JVM controller), so its baseline latency is dominated by ~100s of us of
  // channel time — against which SDNShield's overhead is "almost
  // unnoticeable". Emulate that channel to reproduce the relative shape.
  std::printf(
      "\n=== Figure 6a': same, with a 200us emulated control channel ===\n");
  std::printf("%-10s %-12s %12s %12s %12s %10s\n", "switches", "controller",
              "p10(us)", "median(us)", "p90(us)", "timeouts");
  for (std::size_t switches : {2u, 8u}) {
    for (bool shielded : {false, true}) {
      cbench::LatencyStats stats = runL2(switches, shielded, 200us);
      std::printf("%-10zu %-12s %12.1f %12.1f %12.1f %10zu\n", switches,
                  shielded ? "SDNShield" : "baseline", stats.p10Us,
                  stats.medianUs, stats.p90Us, stats.timeouts);
    }
  }

  std::printf("\n=== Figure 6b: ALTO + TE update-to-rules latency ===\n");
  std::printf("%-10s %-12s %12s %12s %12s\n", "switches", "controller",
              "p10(us)", "median(us)", "p90(us)");
  for (std::size_t switches : {2u, 4u, 8u}) {
    for (bool shielded : {false, true}) {
      Percentiles stats = runAltoTe(switches, shielded);
      std::printf("%-10zu %-12s %12.1f %12.1f %12.1f\n", switches,
                  shielded ? "SDNShield" : "baseline", stats.p10,
                  stats.median, stats.p90);
    }
  }
  std::printf(
      "\nExpected shape (paper): SDNShield bars nearly indistinguishable "
      "from baseline;\noverhead tens of microseconds, far below data-center "
      "end-to-end latency.\n");

  return 0;
}
