#include "shard/shard_runtime.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "isolation/channel.h"
#include "isolation/executor.h"
#include "obs/metrics.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sdnshield::shard {

namespace {

struct RuntimeMetrics {
  obs::Counter calls = obs::Registry::global().counter("shard.calls");
  obs::Counter inlineRuns = obs::Registry::global().counter("shard.inline");
  obs::Counter fences = obs::Registry::global().counter("shard.fences");
  obs::Counter taskFaults = obs::Registry::global().counter("shard.task_faults");
  obs::Counter pinFailures =
      obs::Registry::global().counter("shard.pin_failures");
};

const RuntimeMetrics& metrics() {
  static const RuntimeMetrics m;
  return m;
}

// Loop-thread identity: which runtime and which shard index own the calling
// thread. Lets call() run inline on its own loop and refuse loop-to-loop
// fences without any lookup.
thread_local const void* t_loopRuntime = nullptr;
thread_local std::size_t t_loopShard = 0;

void pinToCore(std::size_t index) {
#if defined(__linux__)
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % cores), &set);
  if (::pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    metrics().pinFailures.increment();
  }
#else
  (void)index;
  metrics().pinFailures.increment();
#endif
}

}  // namespace

struct ShardRuntime::Shard {
  std::size_t index = 0;
  iso::BoundedMpmcQueue<Task> queue;
  std::thread thread;
  obs::Counter tasks;

  explicit Shard(std::size_t idx)
      : index(idx),
        tasks(obs::Registry::global().counter(
            obs::shardMetricName("tasks", idx))) {}
};

ShardRuntime::ShardRuntime(ShardOptions options)
    : options_(options), router_(options.shards) {
  options_.shards = router_.shards();
}

ShardRuntime::~ShardRuntime() { stop(); }

void ShardRuntime::start() {
  if (running_.load(std::memory_order_acquire)) return;
  shards_.clear();
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
  if (iso::VirtualExecutor* executor = iso::virtualExecutor()) {
    // Model-checking mode: no loop threads. Each shard's queue lives in the
    // virtual scheduler and every dispatched task is one explorable step.
    virtualized_ = true;
    for (const auto& shard : shards_) {
      executor->registerQueue(shard.get(),
                              "shard" + std::to_string(shard->index));
    }
    running_.store(true, std::memory_order_release);
    return;
  }
  running_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw] { runLoop(*raw); });
  }
}

void ShardRuntime::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (virtualized_) {
    if (iso::VirtualExecutor* executor = iso::virtualExecutor()) {
      for (const auto& shard : shards_) {
        executor->drainQueue(shard.get());
        executor->unregisterQueue(shard.get());
      }
    }
    virtualized_ = false;
    shards_.clear();
    return;
  }
  // A closed queue refuses later pushes under its own mutex, and pop()
  // hands out everything queued before the close, so each loop drains its
  // backlog and exits. The shards stay allocated until the next start() or
  // destruction, so a call() that passed its running check before stop()
  // meets a closed queue (a refusal, run inline), never freed memory.
  for (const auto& shard : shards_) shard->queue.close();
  for (const auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ShardRuntime::runLoop(Shard& shard) {
  t_loopRuntime = this;
  t_loopShard = shard.index;
  if (options_.pinThreads) pinToCore(shard.index);
  // The task is destroyed at the end of each iteration, so a call()'s
  // completion guard never outlives its step.
  while (std::optional<Task> task = shard.queue.pop()) runTask(shard, *task);
  t_loopRuntime = nullptr;
}

void ShardRuntime::runTask(Shard& shard, Task& task) {
  try {
    task();
  } catch (...) {
    // call() payloads carry their exception back to the caller themselves;
    // anything that still escapes is contained like a dispatch fault.
    metrics().taskFaults.increment();
  }
  tasks_.fetch_add(1, std::memory_order_relaxed);
  shard.tasks.increment();
}

void ShardRuntime::runOnShard(std::size_t shard,
                              const std::function<void()>& fn) {
  call(shard, fn);
}

void ShardRuntime::call(std::size_t shard, const Task& task) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  metrics().calls.increment();
  auto runInline = [&] {
    inlineRuns_.fetch_add(1, std::memory_order_relaxed);
    metrics().inlineRuns.increment();
    task();
  };
  if (!running_.load(std::memory_order_acquire)) {
    runInline();
    return;
  }
  if (virtualized_) {
    struct VirtualState {
      bool done = false;
      std::exception_ptr error;
    };
    auto state = std::make_shared<VirtualState>();
    iso::VirtualExecutor* executor = iso::virtualExecutor();
    bool queued =
        executor && executor->enqueue(shards_[shard].get(), [task, state] {
          try {
            task();
          } catch (...) {
            state->error = std::current_exception();
          }
          state->done = true;
        });
    if (!queued) {
      task();
      return;
    }
    executor->await([state] { return state->done; }, "shard.call");
    if (!state->done) return;  // Teardown: the drain/discard settles it.
    if (state->error) std::rethrow_exception(state->error);
    return;
  }
  if (t_loopRuntime == this) {
    // Already on one of our loops. Same shard: inline keeps ordering. A
    // different shard would mean loop-blocks-on-loop — run inline instead;
    // cycles are impossible when no loop ever waits on a sibling.
    runInline();
    return;
  }
  struct CallState {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  };
  auto state = std::make_shared<CallState>();
  // The guard's destructor is the completion signal: it fires whether the
  // payload ran or was destroyed unrun, so the wait below can never strand.
  auto guard = std::shared_ptr<void>(nullptr, [state](void*) {
    std::lock_guard lock(state->mutex);
    state->done = true;
    state->cv.notify_all();
  });
  Task payload = [task, state, guard = std::move(guard)]() mutable {
    try {
      task();
    } catch (...) {
      state->error = std::current_exception();
    }
    guard.reset();
  };
  if (!shards_[shard]->queue.push(std::move(payload))) {
    // Stopped: the closed queue refused the payload (its guard already
    // fired on destruction), so run the task here.
    runInline();
    return;
  }
  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done; });
  if (state->error) std::rethrow_exception(state->error);
}

bool ShardRuntime::fence(const std::function<void(std::size_t)>& perShard) {
  if (!running_.load(std::memory_order_acquire)) {
    if (perShard) {
      for (std::size_t i = 0; i < shardCount(); ++i) perShard(i);
    }
    return true;
  }
  if (!virtualized_ && t_loopRuntime == this) return false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    call(i, [&perShard, i] {
      if (perShard) perShard(i);
    });
  }
  fences_.fetch_add(1, std::memory_order_relaxed);
  metrics().fences.increment();
  return true;
}

std::optional<std::size_t> ShardRuntime::currentShard() const {
  if (t_loopRuntime == this) return t_loopShard;
  return std::nullopt;
}

void ShardRuntime::attach(ctrl::Controller& controller) {
  controller.setShardDispatch(this);
}

void ShardRuntime::detach(ctrl::Controller& controller) {
  controller.setShardDispatch(nullptr);
  // Drain in-flight routed work so nothing still references the controller
  // once the caller proceeds to tear it down.
  fence({});
}

void ShardRuntime::attachEngine(engine::PermissionEngine&) {}

void ShardRuntime::detachEngine(engine::PermissionEngine&) {}

ShardStats ShardRuntime::stats() const {
  ShardStats out;
  out.tasks = tasks_.load(std::memory_order_relaxed);
  out.calls = calls_.load(std::memory_order_relaxed);
  out.inlineRuns = inlineRuns_.load(std::memory_order_relaxed);
  out.fences = fences_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sdnshield::shard
