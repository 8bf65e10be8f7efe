// Seeded inputs of the serve-stack benchmark. Everything the program under
// test receives — dpids, host MACs/IPs/ports, the order probes visit hosts,
// which probes go to unannounced hosts, the market's manifests and every
// policy text — is a pure function of (workload, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "of/types.h"

namespace perfbench {

enum class Workload { kWireSingle, kWireFanin, kMarketChurn };

std::optional<Workload> parseWorkload(std::string_view name);
const char* workloadName(Workload workload);

/// Fixed shape of a workload (what the seed does not change).
struct WorkloadShape {
  std::size_t switches = 1;
  std::size_t window = 1;  ///< Probes outstanding per switch (closed loop).
  std::size_t shards = 1;  ///< `serve --shards`; switches split evenly.
  std::size_t announcedHosts = 1;    ///< Per switch.
  std::size_t unannouncedHosts = 0;  ///< Per switch.
  bool market = false;               ///< Operator pushes beside traffic.
};
WorkloadShape shapeOf(Workload workload);

struct HostSpec {
  sdnshield::of::MacAddress mac;
  sdnshield::of::Ipv4Address ip;
  sdnshield::of::PortNo port = 0;
};

struct ProbeTarget {
  bool announced = true;
  std::uint32_t index = 0;  ///< Into announced or unannounced.
};

struct SwitchInputs {
  sdnshield::of::DatapathId dpid = 0;
  HostSpec source;  ///< Sender of every probe on this switch.
  std::uint16_t sourceTcpPort = 0;
  std::vector<HostSpec> announced;    ///< In announcement order.
  std::vector<HostSpec> unannounced;  ///< Never seen by the controller.
  std::vector<ProbeTarget> cycle;     ///< Probe order, repeated.
};

struct Inputs {
  std::vector<SwitchInputs> switches;
};

Inputs makeInputs(Workload workload, std::uint64_t seed);

/// The market of market_churn: the L2 app plus kStubApps stub apps in
/// kGroups manifest groups, and a generator of seeded policy texts that
/// bound every group and the L2 app.
struct MarketInputs {
  static constexpr std::size_t kGroups = 16;
  static constexpr std::size_t kStubApps = 255;

  std::vector<std::string> groupManifests;  ///< kGroups texts.
  std::vector<std::size_t> stubGroups;      ///< Group of each stub, in
                                            ///< install order.
};
MarketInputs makeMarketInputs(std::uint64_t seed);

std::string stubAppName(std::size_t group);

/// Seeded policy texts. Every call to next() changes the bound of every
/// group and of the L2 app relative to the previous text, and every bound
/// admits the L2 app's priority-10 forwarding rules.
class PolicyGenerator {
 public:
  explicit PolicyGenerator(std::uint64_t seed);
  std::string next();

 private:
  std::mt19937_64 rng_;
  std::uint32_t l2Bound_ = 0;
  std::vector<std::uint32_t> groupBounds_;
};

}  // namespace perfbench
