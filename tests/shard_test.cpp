// The sharded controller substrate (src/shard, DESIGN.md §16):
//
//  * deterministic routing;
//  * runtime semantics — call() runs on the owning loop, propagates
//    exceptions and runs inline from any loop; fence() barriers every loop
//    and refuses from a loop;
//  * stop() over the loops' bounded queues — every task queued before it
//    runs on its loop, and calls racing it complete exactly once, on a
//    loop or inline;
//  * an installAll epoch publish needs no fence — every loop's next check
//    sees the new epoch;
//  * the acceptance differentials — shards=1 is byte-identical to
//    the pre-shard inline pipeline, and per-switch flow-mod streams are
//    identical across shard counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/l2_learning.h"
#include "controller/controller.h"
#include "core/engine/permission_engine.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "of/wire.h"
#include "shard/router.h"
#include "shard/shard_runtime.h"

namespace sdnshield {
namespace {

namespace wire = of::wire;

// --- router -----------------------------------------------------------------

TEST(ShardRouter, IsDeterministicCoversAllShardsAndMapsEverythingToShard0) {
  shard::Router router4(4);
  std::set<std::size_t> used;
  for (of::DatapathId dpid = 1; dpid <= 256; ++dpid) {
    std::size_t s = router4.shardOf(dpid);
    EXPECT_EQ(s, router4.shardOf(dpid));  // Stable.
    EXPECT_LT(s, 4u);
    used.insert(s);
  }
  EXPECT_EQ(used.size(), 4u) << "dense dpids must spread over every shard";

  shard::Router router1(1);
  for (of::DatapathId dpid = 1; dpid <= 64; ++dpid) {
    EXPECT_EQ(router1.shardOf(dpid), 0u);
  }
  // A fresh instance maps identically (process-stable constants).
  shard::Router again(4);
  for (of::DatapathId dpid = 1; dpid <= 64; ++dpid) {
    EXPECT_EQ(again.shardOf(dpid), router4.shardOf(dpid));
  }
}

// --- runtime semantics ------------------------------------------------------

TEST(ShardRuntime, CallRunsOnOwningLoopAndPropagatesExceptions) {
  shard::ShardOptions options;
  options.shards = 3;
  shard::ShardRuntime runtime(options);
  runtime.start();
  EXPECT_TRUE(runtime.running());
  EXPECT_EQ(runtime.shardCount(), 3u);

  for (std::size_t s = 0; s < 3; ++s) {
    std::optional<std::size_t> observed;
    runtime.call(s, [&] { observed = runtime.currentShard(); });
    ASSERT_TRUE(observed.has_value());
    EXPECT_EQ(*observed, s);
  }
  EXPECT_FALSE(runtime.currentShard().has_value());

  EXPECT_THROW(
      runtime.call(1, [] { throw std::runtime_error("loop task failed"); }),
      std::runtime_error);

  // Nested call onto the same shard runs inline (no self-deadlock).
  bool nested = false;
  runtime.call(2, [&] { runtime.call(2, [&] { nested = true; }); });
  EXPECT_TRUE(nested);

  // A call onto a sibling shard from a loop runs inline on the caller's
  // loop: no loop ever blocks on another.
  std::optional<std::size_t> sibling;
  runtime.call(0, [&] {
    runtime.call(1, [&] { sibling = runtime.currentShard(); });
  });
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(*sibling, 0u);

  shard::ShardStats stats = runtime.stats();
  EXPECT_GE(stats.calls, 7u);
  EXPECT_GE(stats.tasks, 4u);
  runtime.stop();
  EXPECT_FALSE(runtime.running());

  // Stopped: everything degrades to inline execution.
  bool inlineRan = false;
  runtime.call(0, [&] { inlineRan = true; });
  EXPECT_TRUE(inlineRan);
}

TEST(ShardRuntime, FenceBarriersEveryLoopAndRefusesFromALoop) {
  shard::ShardOptions options;
  options.shards = 4;
  shard::ShardRuntime runtime(options);
  runtime.start();

  std::set<std::size_t> visited;
  std::mutex mutex;
  EXPECT_TRUE(runtime.fence([&](std::size_t s) {
    std::lock_guard lock(mutex);
    visited.insert(s);
  }));
  EXPECT_EQ(visited.size(), 4u);

  bool refused = true;
  runtime.call(0, [&] { refused = !runtime.fence({}); });
  EXPECT_TRUE(refused) << "a loop fencing its siblings could deadlock";
  runtime.stop();
}

// --- stop() over the loop queues --------------------------------------------

TEST(ShardRuntime, StopRunsEveryTaskQueuedBeforeIt) {
  shard::ShardOptions options;
  options.shards = 2;
  shard::ShardRuntime runtime(options);
  runtime.start();

  // Park loop 0 behind a gate so the callers below queue up behind it.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> parked{false};
  std::thread blocker([&] {
    runtime.call(0, [&] {
      parked.store(true);
      opened.wait();
    });
  });
  while (!parked.load()) std::this_thread::yield();

  constexpr std::size_t kCallers = 8;
  std::vector<std::atomic<int>> runs(kCallers);
  std::atomic<int> onLoop{0};
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      runtime.call(0, [&, i] {
        runs[i].fetch_add(1);
        if (runtime.currentShard() == 0u) onLoop.fetch_add(1);
      });
    });
  }
  while (runtime.stats().calls < kCallers + 1) std::this_thread::yield();
  // Let the pushes land behind the gate, then stop while they are queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&] { runtime.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.set_value();
  stopper.join();
  blocker.join();
  for (std::thread& t : callers) t.join();

  // A queued task dropped unrun would fire its caller's completion guard
  // with runs[i] == 0; a refused push runs inline instead. Either way each
  // task runs exactly once, and the queued ones ran on the loop.
  for (std::size_t i = 0; i < kCallers; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "caller " << i;
  }
  EXPECT_GT(onLoop.load(), 0) << "no caller was queued before stop()";
  EXPECT_EQ(runtime.stats().tasks,
            static_cast<std::uint64_t>(onLoop.load()) + 1);
}

TEST(ShardRuntime, CallsRacingStopEachCompleteExactlyOnce) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 200;
  constexpr int kRounds = 20;
  int onLoopTotal = 0;
  int inlineTotal = 0;
  for (int round = 0; round < kRounds; ++round) {
    shard::ShardOptions options;
    options.shards = 2;
    shard::ShardRuntime runtime(options);
    runtime.start();

    std::vector<std::atomic<int>> runs(kThreads * kCalls);
    std::atomic<int> onLoop{0};
    std::atomic<int> inlined{0};
    std::atomic<std::size_t> completed{0};
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      callers.emplace_back([&, t] {
        for (std::size_t c = 0; c < kCalls; ++c) {
          std::size_t slot = t * kCalls + c;
          runtime.call(c % 2, [&, slot] {
            runs[slot].fetch_add(1);
            if (runtime.currentShard()) {
              onLoop.fetch_add(1);
            } else {
              inlined.fetch_add(1);
            }
          });
          completed.fetch_add(1);
        }
      });
    }
    // Stop mid-stream, while the callers are still issuing calls.
    while (completed.load() < kThreads * 8) std::this_thread::yield();
    runtime.stop();
    for (std::thread& t : callers) t.join();

    for (std::size_t slot = 0; slot < runs.size(); ++slot) {
      ASSERT_EQ(runs[slot].load(), 1) << "round " << round << " call " << slot;
    }
    EXPECT_EQ(onLoop.load() + inlined.load(),
              static_cast<int>(kThreads * kCalls));
    onLoopTotal += onLoop.load();
    inlineTotal += inlined.load();
  }
  // Both sides of the race were exercised.
  EXPECT_GT(onLoopTotal, 0);
  EXPECT_GT(inlineTotal, 0);
}

// --- epoch publish ----------------------------------------------------------

perm::ApiCall statsCall(of::AppId app) {
  perm::ApiCall call;
  call.type = perm::ApiCallType::kReadStatistics;
  call.app = app;
  call.statsLevel = of::StatsLevel::kSwitch;
  return call;
}

// installAll barriers no shard loop: each loop's check resolves the app's
// program from the engine's current snapshot, so the first check on every
// loop after installAll returns already runs at the new epoch.
TEST(ShardRuntime, InstallAllNextCheckOnEveryLoopSeesNewEpoch) {
  shard::ShardOptions options;
  options.shards = 3;
  shard::ShardRuntime runtime(options);
  runtime.start();
  engine::PermissionEngine engine;
  constexpr of::AppId kApp = 42;
  engine.install(kApp, lang::parsePermissions("PERM read_statistics\n"));
  for (std::size_t s = 0; s < 3; ++s) {
    runtime.call(s, [&] { EXPECT_TRUE(engine.check(statsCall(kApp)).allowed); });
  }

  std::uint64_t fencesBefore = runtime.stats().fences;
  std::uint64_t epochBefore = engine.epoch();
  engine.installAll(std::vector<std::pair<of::AppId, perm::PermissionSet>>{
      {kApp, lang::parsePermissions("PERM pkt_in_event\n")}});
  EXPECT_EQ(runtime.stats().fences, fencesBefore)
      << "an epoch publish must not barrier the shard loops";

  for (std::size_t s = 0; s < 3; ++s) {
    runtime.call(s, [&] {
      EXPECT_EQ(engine.epoch(), epochBefore + 1);
      EXPECT_FALSE(engine.check(statsCall(kApp)).allowed)
          << "shard " << s << " served the pre-publish grant";
    });
  }
  runtime.stop();
}

// --- differentials (ISSUE acceptance) ---------------------------------------

/// Records the exact bytes the wire would carry for every flow-mod, per
/// switch — the differential currency shared with wire_sim_differential.
class RecordingConn final : public ctrl::SwitchConn {
 public:
  ctrl::ApiResult applyFlowMod(const of::FlowMod& mod) override {
    std::lock_guard lock(mutex_);
    frames_.push_back(wire::encodeFlowMod(mod));
    return ctrl::ApiResult::success();
  }
  ctrl::ApiResult transmitPacket(const of::PacketOut&) override {
    packetOuts_.fetch_add(1);
    return ctrl::ApiResult::success();
  }
  ctrl::ApiResponse<std::vector<of::FlowEntry>> dumpFlows() const override {
    return ctrl::ApiResponse<std::vector<of::FlowEntry>>::success({});
  }
  ctrl::ApiResponse<of::StatsReply> queryStats(
      const of::StatsRequest&) const override {
    return ctrl::ApiResponse<of::StatsReply>::success({});
  }
  std::size_t packetOutCount() const { return packetOuts_.load(); }
  std::vector<of::Bytes> frames() const {
    std::lock_guard lock(mutex_);
    return frames_;
  }
  std::size_t frameCount() const {
    std::lock_guard lock(mutex_);
    return frames_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<of::Bytes> frames_;
  std::atomic<std::size_t> packetOuts_{0};
};

/// One emulated switch's workload (the cbench shape): two MAC
/// announcements, then identical TCP SYN probes that each provoke one
/// flow-mod from the L2 learning app.
struct Workload {
  of::PacketIn announceTarget;
  of::PacketIn announceProbe;
  of::PacketIn probe;
};

Workload workloadFor(std::size_t index, of::DatapathId firstDpid) {
  std::uint64_t serial = index + 1;
  of::DatapathId dpid = firstDpid + index;
  of::MacAddress targetMac =
      of::MacAddress::fromUint64(0x020000000000ULL + serial);
  of::MacAddress probeMac =
      of::MacAddress::fromUint64(0x040000000000ULL + serial);
  of::Ipv4Address targetIp(10, 0, static_cast<std::uint8_t>(serial >> 8),
                           static_cast<std::uint8_t>(serial & 0xff));
  of::Ipv4Address probeIp(10, 9, static_cast<std::uint8_t>(serial >> 8),
                          static_cast<std::uint8_t>(serial & 0xff));
  Workload w;
  w.announceTarget.dpid = dpid;
  w.announceTarget.inPort = 1;
  w.announceTarget.packet = of::Packet::makeArpRequest(
      targetMac, targetIp, of::Ipv4Address(10, 255, 255, 254));
  w.announceProbe.dpid = dpid;
  w.announceProbe.inPort = 4;
  w.announceProbe.packet = of::Packet::makeArpRequest(
      probeMac, probeIp, of::Ipv4Address(10, 255, 255, 254));
  w.probe.dpid = dpid;
  w.probe.inPort = 4;
  w.probe.reason = of::PacketInReason::kNoMatch;
  w.probe.packet = of::Packet::makeTcp(probeMac, targetMac, probeIp, targetIp,
                                       12345, 80, of::tcpflags::kSyn);
  return w;
}

/// The full shielded stack (controller + ShieldRuntime + L2 app), driven
/// in-process — optionally behind a shard runtime with N loops.
struct Stack {
  std::unique_ptr<shard::ShardRuntime> runtime;
  ctrl::Controller controller;
  iso::ShieldRuntime shield{controller};
  std::vector<std::shared_ptr<RecordingConn>> conns;

  explicit Stack(std::size_t shards) {
    if (shards > 0) {
      shard::ShardOptions options;
      options.shards = shards;
      runtime = std::make_unique<shard::ShardRuntime>(options);
      runtime->start();
      runtime->attach(controller);
    }
    auto app = std::make_shared<apps::L2LearningSwitch>();
    shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));
  }

  ~Stack() {
    shield.shutdown();
    if (runtime) {
      runtime->detach(controller);
      runtime->stop();
    }
  }

  void run(std::size_t connections, std::size_t rounds,
           of::DatapathId firstDpid) {
    for (std::size_t i = 0; i < connections; ++i) {
      auto conn = std::make_shared<RecordingConn>();
      ASSERT_TRUE(static_cast<bool>(controller.attachSwitch(
          conn, ctrl::ConnectionInfo{firstDpid + i, "sim", "in-process", 0})));
      conns.push_back(conn);
    }
    for (std::size_t i = 0; i < connections; ++i) {
      Workload w = workloadFor(i, firstDpid);
      controller.onPacketIn(w.announceTarget);
      controller.onPacketIn(w.announceProbe);
      for (std::size_t round = 0; round < rounds; ++round) {
        controller.onPacketIn(w.probe);
      }
    }
    // The shield posts events to the app thread, and the app issues each
    // probe's flow-mod and packet-out asynchronously; wait for every one
    // (two announcement floods plus one forward per probe) to land, so the
    // audit totals compared afterwards are final.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (auto& conn : conns) {
      while ((conn->frameCount() < rounds ||
              conn->packetOutCount() < rounds + 2) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ASSERT_EQ(conn->frameCount(), rounds);
      ASSERT_EQ(conn->packetOutCount(), rounds + 2);
    }
  }
};

void expectIdenticalFrames(Stack& a, Stack& b) {
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t i = 0; i < a.conns.size(); ++i) {
    std::vector<of::Bytes> aFrames = a.conns[i]->frames();
    std::vector<of::Bytes> bFrames = b.conns[i]->frames();
    ASSERT_EQ(aFrames.size(), bFrames.size()) << "connection " << i;
    for (std::size_t f = 0; f < aFrames.size(); ++f) {
      ASSERT_EQ(aFrames[f], bFrames[f])
          << "connection " << i << " frame " << f;
    }
  }
  EXPECT_EQ(a.controller.audit().totalRecorded(),
            b.controller.audit().totalRecorded());
  EXPECT_EQ(a.controller.audit().deniedCount(),
            b.controller.audit().deniedCount());
  EXPECT_EQ(a.controller.dispatchFaultCount(), 0u);
  EXPECT_EQ(b.controller.dispatchFaultCount(), 0u);
}

TEST(ShardDifferential, Shards1IsByteIdenticalToTheUnshardedPipeline) {
  constexpr std::size_t kConnections = 16;
  constexpr std::size_t kRounds = 4;

  Stack unsharded(0);  // No runtime: the pre-shard inline pipeline.
  unsharded.run(kConnections, kRounds, 1);

  Stack sharded(1);
  sharded.run(kConnections, kRounds, 1);

  expectIdenticalFrames(unsharded, sharded);
  // Everything routed: shard 0 ran every dispatch.
  ASSERT_NE(sharded.runtime, nullptr);
  EXPECT_GT(sharded.runtime->stats().calls, 0u);
}

TEST(ShardDifferential, FlowModStreamsAreIdenticalAcrossShardCounts) {
  constexpr std::size_t kConnections = 16;
  constexpr std::size_t kRounds = 4;

  Stack one(1);
  one.run(kConnections, kRounds, 1);

  Stack four(4);
  four.run(kConnections, kRounds, 1);

  expectIdenticalFrames(one, four);
}

}  // namespace
}  // namespace sdnshield
