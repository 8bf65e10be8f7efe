#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "of/flow_mod.h"  // of::AppId, which shard/router.h uses.
#include "shard/router.h"

namespace perfbench {

namespace of = sdnshield::of;

std::optional<Workload> parseWorkload(std::string_view name) {
  if (name == "wire_single") return Workload::kWireSingle;
  if (name == "wire_fanin") return Workload::kWireFanin;
  if (name == "market_churn") return Workload::kMarketChurn;
  return std::nullopt;
}

const char* workloadName(Workload workload) {
  switch (workload) {
    case Workload::kWireSingle:
      return "wire_single";
    case Workload::kWireFanin:
      return "wire_fanin";
    case Workload::kMarketChurn:
      return "market_churn";
  }
  return "unknown";
}

WorkloadShape shapeOf(Workload workload) {
  WorkloadShape shape;
  switch (workload) {
    case Workload::kWireSingle:
      break;
    case Workload::kWireFanin:
      // 4 switches x 16 outstanding, 2 shards; 2,048 announced hosts per
      // switch (8,192 distinct insert_flow calls, twice the 4,096-slot
      // per-thread memo) and one probe in eight to an unannounced host.
      shape.switches = 4;
      shape.window = 16;
      shape.shards = 2;
      shape.announcedHosts = 2048;
      shape.unannouncedHosts = 256;
      break;
    case Workload::kMarketChurn:
      shape.market = true;
      break;
  }
  return shape;
}

namespace {

/// Distinct locally administered unicast MACs and 10/8 IPs.
class AddressPool {
 public:
  explicit AddressPool(std::mt19937_64& rng) : rng_(rng) {}

  HostSpec take(of::PortNo port) {
    HostSpec host;
    std::uint64_t mac = 0;
    do {
      mac = (rng_() & 0xfcffffffffffULL) | 0x020000000000ULL;
    } while (!macs_.insert(mac).second);
    std::uint32_t ip = 0;
    do {
      ip = 0x0a000000u | static_cast<std::uint32_t>(rng_() & 0x00fffffeu);
    } while ((ip & 0xffu) == 0 || !ips_.insert(ip).second);
    host.mac = of::MacAddress::fromUint64(mac);
    host.ip = of::Ipv4Address(ip);
    host.port = port;
    return host;
  }

 private:
  std::mt19937_64& rng_;
  std::unordered_set<std::uint64_t> macs_;
  std::unordered_set<std::uint32_t> ips_;
};

constexpr of::PortNo kHostPorts = 48;  ///< Hosts sit on ports 1..48.

}  // namespace

Inputs makeInputs(Workload workload, std::uint64_t seed) {
  WorkloadShape shape = shapeOf(workload);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  AddressPool pool(rng);
  Inputs inputs;
  std::unordered_set<of::DatapathId> dpids;
  // The seed draws the dpids, but the shape fixes how the switches home:
  // a draw whose shard (shard::Router, as `serve --shards` routes) already
  // holds its share is redrawn, so every shard is home to the same number
  // of switches on every seed.
  sdnshield::shard::Router router(shape.shards);
  std::vector<std::size_t> homed(router.shards(), 0);
  const std::size_t share =
      (shape.switches + router.shards() - 1) / router.shards();
  for (std::size_t s = 0; s < shape.switches; ++s) {
    SwitchInputs sw;
    do {
      sw.dpid = (rng() & 0x0000ffffffffffffULL) | 1;
    } while (homed[router.shardOf(sw.dpid)] == share ||
             !dpids.insert(sw.dpid).second);
    ++homed[router.shardOf(sw.dpid)];
    auto hostPort = [&] {
      return static_cast<of::PortNo>(1 + rng() % kHostPorts);
    };
    // The probe source sits on a port of its own, above every host port, so
    // no answer ever forwards back out of the ingress port.
    sw.source = pool.take(static_cast<of::PortNo>(kHostPorts + 1 + rng() % 8));
    sw.sourceTcpPort = static_cast<std::uint16_t>(1024 + rng() % 60000);
    for (std::size_t h = 0; h < shape.announcedHosts; ++h) {
      sw.announced.push_back(pool.take(hostPort()));
    }
    for (std::size_t h = 0; h < shape.unannouncedHosts; ++h) {
      sw.unannounced.push_back(pool.take(hostPort()));
    }
    // One cycle visits every announced host once; unannounced targets make
    // up one probe in eight of the cycle.
    for (std::size_t h = 0; h < sw.announced.size(); ++h) {
      sw.cycle.push_back({true, static_cast<std::uint32_t>(h)});
    }
    if (!sw.unannounced.empty()) {
      std::size_t floods = sw.announced.size() / 7;
      for (std::size_t i = 0; i < floods; ++i) {
        sw.cycle.push_back(
            {false, static_cast<std::uint32_t>(i % sw.unannounced.size())});
      }
    }
    std::shuffle(sw.cycle.begin(), sw.cycle.end(), rng);
    inputs.switches.push_back(std::move(sw));
  }
  return inputs;
}

std::string stubAppName(std::size_t group) {
  char name[32];
  std::snprintf(name, sizeof(name), "stub_g%02zu", group);
  return name;
}

MarketInputs makeMarketInputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0xd1b54a32d192ed03ULL + 0x3a7c);
  MarketInputs market;
  for (std::size_t g = 0; g < MarketInputs::kGroups; ++g) {
    std::ostringstream text;
    text << "APP " << stubAppName(g) << "\n";
    text << "PERM read_statistics LIMITING SWITCH_LEVEL\n";
    if (rng() % 2 == 0) text << "PERM visible_topology\n";
    text << "PERM insert_flow LIMITING IP_DST 10." << (rng() % 250)
         << ".0.0 MASK 255.255.0.0 AND MAX_PRIORITY " << (200 + rng() % 800)
         << "\n";
    if (rng() % 3 == 0) text << "PERM delete_flow LIMITING OWN_FLOWS\n";
    market.groupManifests.push_back(text.str());
  }
  for (std::size_t i = 0; i < MarketInputs::kStubApps; ++i) {
    market.stubGroups.push_back(i % MarketInputs::kGroups);
  }
  std::shuffle(market.stubGroups.begin(), market.stubGroups.end(), rng);
  return market;
}

PolicyGenerator::PolicyGenerator(std::uint64_t seed)
    : rng_(seed * 0xa0761d6478bd642fULL + 0x9017),
      groupBounds_(MarketInputs::kGroups, 0) {}

std::string PolicyGenerator::next() {
  // A fresh value for every bound: the L2 bound stays >= 10 so the L2 app's
  // priority-10 rules are always admitted; group bounds stay below the
  // manifests' MAX_PRIORITY so every group's grant really narrows.
  auto fresh = [this](std::uint32_t previous, std::uint32_t lo,
                      std::uint32_t span) {
    std::uint32_t value = previous;
    while (value == previous) {
      value = lo + static_cast<std::uint32_t>(rng_() % span);
    }
    return value;
  };
  l2Bound_ = fresh(l2Bound_, 10, 60000);
  std::ostringstream text;
  text << "LET bl2 = {\nPERM pkt_in_event\nPERM send_pkt_out\n"
       << "PERM insert_flow LIMITING MAX_PRIORITY " << l2Bound_ << "\n}\n";
  for (std::size_t g = 0; g < groupBounds_.size(); ++g) {
    groupBounds_[g] = fresh(groupBounds_[g], 1, 199);
    text << "LET bg" << g << " = {\nPERM read_statistics\n"
         << "PERM visible_topology\nPERM delete_flow\n"
         << "PERM insert_flow LIMITING MAX_PRIORITY " << groupBounds_[g]
         << "\n}\n";
  }
  text << "ASSERT APP l2_learning <= bl2\n";
  for (std::size_t g = 0; g < groupBounds_.size(); ++g) {
    text << "ASSERT APP " << stubAppName(g) << " <= bg" << g << "\n";
  }
  return text.str();
}

}  // namespace perfbench
