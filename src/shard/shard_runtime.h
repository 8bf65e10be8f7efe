// The sharded controller substrate (DESIGN.md §16, ROADMAP item 1): N
// per-core event loops, each draining its own iso::BoundedMpmcQueue (the
// one inter-thread queue, paper §VIII-B). A deterministic Router maps
// dpid -> shard; cross-shard traffic exists only for topology-wide
// operations — app quarantine and controller detach — which run as a
// fence: one task per shard, caller waits for all. Policy epoch publishes
// need no fence: a shard-local check resolves the app's program from the
// engine's current snapshot, so the first check after installAll returns
// sees the new grants on every loop.
//
// shards=1 reproduces the pre-shard single pipeline bit-for-bit: every
// dpid routes to shard 0, packet-ins dispatch in arrival order on one
// loop, and the differential tests pin the equivalence.
//
// Under the deterministic interleaving explorer (src/mck) the loops are
// virtualized through the iso::VirtualExecutor seam exactly like
// ThreadContainer / KsdPool: no threads are spawned, each shard registers
// a task queue, and every dispatched task becomes one explorable step.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "controller/controller.h"
#include "shard/router.h"

namespace sdnshield::engine {
class PermissionEngine;
}  // namespace sdnshield::engine

namespace sdnshield::shard {

struct ShardOptions {
  /// Event-loop count. 1 (the default) is the compatibility mode: a single
  /// loop owning everything.
  std::size_t shards = 1;
  /// Best-effort CPU pinning (pthread_setaffinity_np): shard i is pinned to
  /// core i % hardware_concurrency. Failure (no permission, exotic libc) is
  /// recorded in a counter and otherwise ignored.
  bool pinThreads = false;
};

/// Aggregate runtime counters (merged across shards; see also the
/// per-shard "shard.s<N>.tasks" counters in the obs registry).
struct ShardStats {
  std::uint64_t tasks = 0;      ///< Tasks executed on shard loops.
  std::uint64_t calls = 0;      ///< Synchronous runOnShard/call round-trips.
  std::uint64_t inlineRuns = 0; ///< Tasks run on the caller (not running /
                                ///< called from a loop / push refused).
  std::uint64_t fences = 0;     ///< Completed fence barriers.
};

class ShardRuntime final : public ctrl::ShardDispatch {
 public:
  using Task = std::function<void()>;

  explicit ShardRuntime(ShardOptions options = {});
  ~ShardRuntime() override;
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Spawns the shard loops (or registers virtual queues under mck).
  /// Idempotent.
  void start();
  /// Closes every loop's queue and joins the loops. Each loop runs every
  /// task queued before the close; a call() racing stop() is either queued
  /// in time (and runs on its loop) or refused (and runs inline), so no
  /// caller strands. Detach the controller first so no new work routes
  /// here. Not safe to race start().
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  const Router& router() const { return router_; }

  // --- ctrl::ShardDispatch --------------------------------------------------
  std::size_t shardCount() const override { return router_.shards(); }
  std::size_t shardOf(of::DatapathId dpid) const override {
    return router_.shardOf(dpid);
  }
  void runOnShard(std::size_t shard, const std::function<void()>& fn) override;
  bool fenceShards() override { return fence({}); }

  // --- task submission ------------------------------------------------------
  /// Runs @p task to completion on @p shard and waits. Inline when the
  /// runtime is not running, the caller already is a shard loop (running
  /// it on the caller avoids loop-to-loop blocking cycles) or the queue
  /// refused the push because stop() closed it. Task exceptions propagate
  /// to the caller.
  void call(std::size_t shard, const Task& task);
  /// Barrier: runs @p perShard (may be empty) on every shard loop in index
  /// order, waiting for each. Refused (returns false, runs nothing) from a
  /// shard loop, where blocking on siblings could cycle. Used for
  /// quarantine and detach.
  bool fence(const std::function<void(std::size_t)>& perShard);

  /// Shard loop the calling thread belongs to, if any.
  std::optional<std::size_t> currentShard() const;

  // --- wiring convenience ---------------------------------------------------
  /// controller.setShardDispatch(this). Call after start().
  void attach(ctrl::Controller& controller);
  /// Clears the dispatch and fences so no in-flight task still references
  /// the controller when the caller proceeds to tear things down.
  void detach(ctrl::Controller& controller);
  /// No-ops: epoch publishes need no shard fence. Kept only for the
  /// benchmark harness (perfbench/), which still calls them.
  void attachEngine(engine::PermissionEngine& engine);
  void detachEngine(engine::PermissionEngine& engine);

  ShardStats stats() const;

 private:
  struct Shard;

  void runLoop(Shard& shard);
  void runTask(Shard& shard, Task& task);

  ShardOptions options_;
  Router router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  bool virtualized_ = false;

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> inlineRuns_{0};
  std::atomic<std::uint64_t> fences_{0};
};

}  // namespace sdnshield::shard
