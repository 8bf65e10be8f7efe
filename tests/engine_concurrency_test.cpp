// Concurrency stress for PermissionEngine (ISSUE 1 satellite): hammers
// check() from reader threads while writer threads install/uninstall apps,
// exercising the copy-and-swap app-table snapshot. Run under TSan via
// scripts/ci.sh (SDNSHIELD_SANITIZE=thread) to catch data races.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/perm/permission.h"
#include "core/engine/permission_engine.h"

namespace sdnshield::engine {
namespace {

using perm::ApiCall;
using perm::FilterExpr;
using perm::FilterPtr;
using perm::Token;

perm::PermissionSet tpDstOnlyManifest(std::uint16_t port) {
  perm::PermissionSet set;
  set.grant(Token::kInsertFlow,
            FilterExpr::singleton(FilterPtr{new perm::FieldPredicateFilter(
                of::MatchField::kTpDst, port)}));
  set.grant(Token::kReadStatistics, nullptr);
  return set;
}

ApiCall insertCall(of::AppId app, std::uint16_t tpDst) {
  ApiCall call;
  call.type = perm::ApiCallType::kInsertFlow;
  call.app = app;
  call.dpid = 1;
  of::FlowMatch match;
  match.tpDst = tpDst;
  call.match = match;
  call.priority = 10;
  return call;
}

// 8 threads (4 checkers, 2 installers, 1 uninstaller, 1 introspector) share
// one engine. App 1 has a fixed manifest installed once and never touched;
// its decisions must stay byte-stable throughout. Apps 2..5 churn.
TEST(EngineConcurrencyTest, ParallelCheckInstallUninstallIsLinearizable) {
  PermissionEngine engine;
  constexpr of::AppId kStableApp = 1;
  engine.install(kStableApp, tpDstOnlyManifest(80));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checksDone{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ApiCall allowed = insertCall(kStableApp, 80);
      ApiCall denied = insertCall(kStableApp, 443);
      ApiCall statsCall;
      statsCall.type = perm::ApiCallType::kReadStatistics;
      statsCall.app = kStableApp;
      statsCall.statsLevel = of::StatsLevel::kFlow;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!engine.check(allowed).allowed || engine.check(denied).allowed ||
            !engine.check(statsCall).allowed) {
          failed.store(true);
          return;
        }
        // Churning apps may or may not be installed at this instant; the
        // decision just has to come back without crashing or hanging.
        ApiCall churn = insertCall(2 + (t % 4), 80);
        (void)engine.check(churn);
        checksDone.fetch_add(4, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      of::AppId app = 2 + t;
      std::uint16_t port = 80;
      while (!stop.load(std::memory_order_relaxed)) {
        engine.install(app, tpDstOnlyManifest(port));
        port = port == 80 ? 443 : 80;
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.uninstall(4);
      engine.install(4, tpDstOnlyManifest(22));
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto compiled = engine.compiled(kStableApp);
      if (!compiled || !compiled->hasToken(Token::kInsertFlow)) {
        failed.store(true);
        return;
      }
    }
  });

  // Run until every checker has produced a healthy sample (bounded by a
  // wall-clock cap so a livelock fails instead of hanging CI).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (checksDone.load(std::memory_order_relaxed) < 20'000 &&
         std::chrono::steady_clock::now() < deadline &&
         !failed.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failed.load()) << "stable app's decision flipped mid-run";
  EXPECT_GE(checksDone.load(), 20'000u) << "checkers starved";
}

// Reinstalling an app changes its decisions at once: the same call that the
// permissive manifest allowed is denied on the very next check after the
// restrictive one replaces it, and after an uninstall.
TEST(EngineConcurrencyTest, ReinstallChangesDecision) {
  PermissionEngine engine;
  constexpr of::AppId kApp = 9;
  ApiCall call = insertCall(kApp, 443);

  engine.install(kApp, tpDstOnlyManifest(443));
  EXPECT_TRUE(engine.check(call).allowed);

  engine.install(kApp, tpDstOnlyManifest(80));
  EXPECT_FALSE(engine.check(call).allowed);

  engine.uninstall(kApp);
  EXPECT_FALSE(engine.check(call).allowed);
}

}  // namespace
}  // namespace sdnshield::engine
