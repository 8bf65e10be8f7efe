// Traced replays: the workload's real inputs pushed through single layers
// in isolation, on detached replicas, so their cost can be read apart from
// thread hand-offs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/perm/permission.h"
#include "inputs.h"
#include "loadgen.h"
#include "stats.h"

namespace perfbench {

/// Captured client-to-server bytes through net::Framer + of::wire::decode
/// in 64 KiB reads: median over passes of ns per frame.
struct FramerReplay {
  double nsPerFrame = 0;
  std::uint64_t frames = 0;  ///< Per pass.
};
FramerReplay replayFramer(const std::vector<std::uint8_t>& bytes);

/// The workload's insert_flow calls through PermissionEngine::check, with
/// the live grant of the L2 app: hot (memo warm) and cold (after an epoch
/// bump and a cleared thread memo), median ns per check.
struct EngineReplay {
  Percentile hotNs;
  Percentile coldNs;
  std::uint64_t denied = 0;
};
EngineReplay replayEngine(const sdnshield::perm::PermissionSet& grant,
                          const std::vector<CapturedFlowMod>& flowMods);

/// A policy push rebuilt layer by layer on a detached replica of the
/// market_churn market: parsePolicy of each pushed text, Reconciler per
/// unit representative, and installAll of the resulting grants (compiled
/// from a cleared program cache) into an engine with no shard fence.
/// Medians over the texts.
struct MarketReplay {
  Percentile parseMs;
  Percentile reconcileUnitMs;
  Percentile installAllMs;
  std::size_t units = 0;
};
MarketReplay replayMarket(const MarketInputs& market,
                          const std::vector<std::string>& policies);

}  // namespace perfbench
