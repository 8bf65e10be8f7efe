#include "replay.h"

#include <algorithm>
#include <map>

#include "apps/l2_learning.h"
#include "core/engine/permission_engine.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"
#include "core/perm/api_call.h"
#include "core/reconcile/reconciler.h"
#include "net/framer.h"
#include "of/wire.h"
#include "tracing.h"

namespace perfbench {

namespace sd = sdnshield;

FramerReplay replayFramer(const std::vector<std::uint8_t>& bytes) {
  FramerReplay out;
  if (bytes.empty()) return out;
  constexpr std::size_t kReadChunk = 64 * 1024;
  constexpr int kPasses = 9;
  std::vector<double> perFrame;
  for (int pass = 0; pass < kPasses; ++pass) {
    sd::net::Framer framer;
    sd::net::Framer::Frame frame;
    std::uint64_t frames = 0;
    std::int64_t start = nowNs();
    for (std::size_t offset = 0; offset < bytes.size(); offset += kReadChunk) {
      std::size_t n = std::min(kReadChunk, bytes.size() - offset);
      framer.append(bytes.data() + offset, n);
      while (framer.next(frame) == sd::net::Framer::Status::kFrame) {
        sd::of::wire::Message message =
            sd::of::wire::decode(frame.data, frame.size);
        (void)message;
        ++frames;
      }
    }
    std::int64_t elapsed = nowNs() - start;
    out.frames = frames;
    perFrame.push_back(static_cast<double>(elapsed) /
                       static_cast<double>(std::max<std::uint64_t>(frames, 1)));
  }
  std::sort(perFrame.begin(), perFrame.end());
  out.nsPerFrame = perFrame[perFrame.size() / 2];
  return out;
}

EngineReplay replayEngine(const sd::perm::PermissionSet& grant,
                          const std::vector<CapturedFlowMod>& flowMods) {
  EngineReplay out;
  constexpr sd::of::AppId kApp = 1;
  sd::engine::PermissionEngine engine;
  engine.install(kApp, grant);
  std::vector<sd::perm::ApiCall> calls;
  calls.reserve(flowMods.size());
  for (const CapturedFlowMod& captured : flowMods) {
    calls.push_back(
        sd::perm::ApiCall::insertFlow(kApp, captured.dpid, captured.mod));
  }
  if (calls.empty()) return out;

  // Hot: a warming pass, then each check timed on its own.
  for (const auto& call : calls) out.denied += !engine.check(call).allowed;
  std::vector<double> hot;
  hot.reserve(calls.size());
  for (const auto& call : calls) {
    std::int64_t start = nowNs();
    bool allowed = engine.check(call).allowed;
    hot.push_back(static_cast<double>(nowNs() - start));
    out.denied += !allowed;
  }
  out.hotNs = percentile(hot, 0.5);

  // Cold: a new epoch, and this thread's memo cleared before every check.
  engine.install(kApp, grant);
  std::vector<double> cold;
  cold.reserve(calls.size());
  for (const auto& call : calls) {
    sd::engine::PermissionEngine::resetThreadMemo();
    std::int64_t start = nowNs();
    bool allowed = engine.check(call).allowed;
    cold.push_back(static_cast<double>(nowNs() - start));
    out.denied += !allowed;
  }
  out.coldNs = percentile(cold, 0.5);
  sd::engine::PermissionEngine::resetThreadMemo();
  return out;
}

MarketReplay replayMarket(const MarketInputs& market,
                          const std::vector<std::string>& policies) {
  MarketReplay out;
  // Unit representatives: the L2 app and one app per manifest group.
  std::vector<sd::lang::PermissionManifest> manifests;
  manifests.push_back(sd::lang::parseManifest(
      sd::apps::L2LearningSwitch().requestedManifest()));
  for (const std::string& text : market.groupManifests) {
    manifests.push_back(sd::lang::parseManifest(text));
  }
  out.units = manifests.size();

  std::map<std::string, sd::perm::PermissionSet> grants;
  for (const auto& manifest : manifests) {
    grants[manifest.appName] = manifest.permissions;
  }
  std::vector<double> parseMs, unitMs, installMs;
  for (const std::string& text : policies) {
    std::int64_t start = nowNs();
    sd::lang::PolicyProgram policy = sd::lang::parsePolicy(text);
    parseMs.push_back(static_cast<double>(nowNs() - start) / 1e6);

    const sd::reconcile::Reconciler reconciler(policy);
    std::map<std::string, sd::perm::PermissionSet> next;
    for (const auto& manifest : manifests) {
      std::map<std::string, sd::perm::PermissionSet> context = grants;
      context.erase(manifest.appName);
      start = nowNs();
      next[manifest.appName] =
          reconciler.reconcile(manifest, context).finalPermissions;
      unitMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
    }
    grants = std::move(next);

    std::vector<std::pair<sd::of::AppId, sd::perm::PermissionSet>> all;
    all.emplace_back(1, grants[manifests[0].appName]);
    for (std::size_t i = 0; i < market.stubGroups.size(); ++i) {
      all.emplace_back(
          static_cast<sd::of::AppId>(i + 2),
          grants[manifests[1 + market.stubGroups[i]].appName]);
    }
    // A cold program cache, whatever ran before in this process: every
    // replayed push compiles its distinct grants, as a fresh push does.
    sd::engine::CompiledProgramCache::global().clear();
    sd::engine::PermissionEngine engine;
    start = nowNs();
    engine.installAll(all);
    installMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
  }
  out.parseMs = percentile(parseMs, 0.5);
  out.reconcileUnitMs = percentile(unitMs, 0.5);
  out.installAllMs = percentile(installMs, 0.5);
  return out;
}

}  // namespace perfbench
