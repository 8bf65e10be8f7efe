#include "isolation/thread_container.h"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "isolation/executor.h"
#include "isolation/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdnshield::iso {

namespace {

thread_local of::AppId tlsAppId = of::kKernelAppId;

/// Container metrics, shared across all app containers (per-app numbers
/// stay on the container/supervisor; the registry carries the fleet view).
struct ContainerMetrics {
  obs::Histogram taskLatency =
      obs::Registry::global().histogram("container.task_ns");
  obs::Counter tasks = obs::Registry::global().counter("container.tasks");
  obs::Counter faults = obs::Registry::global().counter("container.faults");
  obs::Counter eventDrops =
      obs::Registry::global().counter("container.event_drops");
};

const ContainerMetrics& containerMetrics() {
  static const ContainerMetrics metrics;
  return metrics;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             ThreadContainer::Clock::now().time_since_epoch())
      .count();
}

}  // namespace

of::AppId currentAppId() { return tlsAppId; }

std::string describeException(std::exception_ptr error) {
  if (!error) return "no exception";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

ScopedIdentity::ScopedIdentity(of::AppId app) : previous_(tlsAppId) {
  tlsAppId = app;
}

ScopedIdentity::~ScopedIdentity() { tlsAppId = previous_; }

std::thread spawnInheriting(std::function<void()> body) {
  of::AppId inherited = tlsAppId;
  return std::thread([inherited, body = std::move(body)] {
    ScopedIdentity identity(inherited);
    body();
  });
}

ThreadContainer::ThreadContainer(of::AppId app, std::string name,
                                 std::size_t queueCapacity)
    : state_(std::make_shared<State>(app, std::move(name), queueCapacity)) {}

ThreadContainer::~ThreadContainer() {
  stop();
  if (state_->virtualized) {
    if (VirtualExecutor* executor = virtualExecutor()) {
      executor->unregisterQueue(state_.get());
    }
  }
}

void ThreadContainer::setFaultHandler(FaultHandler handler) {
  state_->onFault = std::move(handler);
}

void ThreadContainer::start() {
  if (started_) return;
  started_ = true;
  if (VirtualExecutor* executor = virtualExecutor()) {
    // Model-checking mode: no worker thread. The queue lives inside the
    // virtual scheduler and every task becomes one explorable step.
    state_->virtualized = true;
    executor->registerQueue(state_.get(), "app:" + state_->name);
    return;
  }
  thread_ = std::thread([state = state_] { runLoop(state); });
}

void ThreadContainer::stop(std::chrono::milliseconds joinTimeout) {
  state_->queue.close();
  if (state_->virtualized) {
    // Join semantics without a thread: run whatever is still queued, in
    // order, on the caller (the worker would have drained it before
    // exiting).
    if (VirtualExecutor* executor = virtualExecutor()) {
      executor->drainQueue(state_.get());
    }
    return;
  }
  if (!thread_.joinable()) return;
  std::unique_lock lock(state_->exitMutex);
  bool exited = state_->exitCv.wait_for(lock, joinTimeout,
                                        [&] { return state_->exited; });
  lock.unlock();
  if (exited) {
    thread_.join();
  } else {
    // The worker is wedged inside an app task. Abandon it: the thread owns
    // the container state via shared_ptr, so this cannot dangle, and the
    // closed queue guarantees it exits if the task ever returns.
    state_->quarantined.store(true);
    thread_.detach();
  }
}

void ThreadContainer::quarantine() {
  state_->quarantined.store(true);
  state_->queue.closeAndDiscard();
  if (state_->virtualized) {
    // Pending virtual tasks are destroyed unrun — waiters observe the
    // discard, exactly like the discarded real queue.
    if (VirtualExecutor* executor = virtualExecutor()) {
      executor->discardQueue(state_.get());
    }
  }
}

bool ThreadContainer::postVirtual(const std::shared_ptr<State>& state,
                                  std::function<void()> task) {
  VirtualExecutor* executor = virtualExecutor();
  if (!executor || state->queue.closed()) return false;
  return executor->enqueue(
      state.get(), [state, task = std::move(task)]() mutable {
        ScopedIdentity identity(state->app);
        runOneTask(*state, task);
      });
}

bool ThreadContainer::post(std::function<void()> task) {
  if (state_->virtualized) return postVirtual(state_, std::move(task));
  return state_->queue.push(std::move(task));
}

bool ThreadContainer::tryPost(std::function<void()> task) {
  if (FaultInjector::instance().injectQueueFull(sites::kContainerPost) ||
      !(state_->virtualized ? postVirtual(state_, std::move(task))
                            : state_->queue.tryPush(std::move(task)))) {
    state_->dropped.fetch_add(1, std::memory_order_relaxed);
    containerMetrics().eventDrops.increment();
    return false;
  }
  return true;
}

bool ThreadContainer::postAndWait(std::function<void()> task,
                                  std::chrono::milliseconds timeout) {
  // Only the error's text crosses threads. A shared exception_ptr frees its
  // exception on whichever thread drops the last reference, through a
  // refcount TSan cannot see, while the waiter may still be reading it.
  struct WaitState {
    std::mutex mutex;
    std::condition_variable cv;
    bool settled = false;  // Ran, or destroyed unrun (quarantine discard).
    bool ran = false;
    std::optional<std::string> error;
  };
  auto state = std::make_shared<WaitState>();
  // The guard's deleter is the completion signal: the queued wrapper is its
  // only owner, so it fires whether the task ran or was discarded, and the
  // wait below never runs out the full timeout on a discarded task.
  auto guard = std::shared_ptr<void>(nullptr, [state](void*) {
    std::lock_guard lock(state->mutex);
    state->settled = true;
    state->cv.notify_all();
  });
  bool posted =
      post([task = std::move(task), state, guard = std::move(guard)]() mutable {
        std::optional<std::string> error;
        try {
          task();
        } catch (...) {
          error = describeException(std::current_exception());
        }
        {
          std::lock_guard lock(state->mutex);
          state->ran = true;
          state->error = std::move(error);
        }
        guard.reset();
      });
  if (!posted) return false;  // Container stopped; nothing will run.
  auto settled = [&state] {
    std::lock_guard lock(state->mutex);
    return state->settled;
  };
  if (state_->virtualized) {
    // await() is best effort during teardown; an unsettled wait here takes
    // the same failure path a timed-out real wait would.
    if (VirtualExecutor* executor = virtualExecutor()) {
      executor->await(settled, "container.join");
    }
    if (!settled()) return false;
  } else {
    std::unique_lock lock(state->mutex);
    if (!state->cv.wait_for(lock, timeout, [&] { return state->settled; })) {
      return false;
    }
  }
  std::lock_guard lock(state->mutex);
  if (state->error) throw std::runtime_error(*state->error);
  return state->ran;
}

ThreadContainer::Clock::duration ThreadContainer::currentTaskRuntime() const {
  std::int64_t start = state_->taskStartNs.load(std::memory_order_relaxed);
  if (start == 0) return {};
  return std::chrono::nanoseconds(nowNs() - start);
}

void ThreadContainer::runOneTask(State& state, std::function<void()>& task) {
  std::int64_t startNs = nowNs();
  state.taskStartNs.store(startNs, std::memory_order_relaxed);
  try {
    FaultInjector::instance().inject(sites::kContainerTask);
    task();
  } catch (...) {
    // Containment: an app fault must never escape the container thread
    // (it would std::terminate the whole controller).
    state.faults.fetch_add(1, std::memory_order_relaxed);
    containerMetrics().faults.increment();
    if (state.onFault) {
      std::exception_ptr error = std::current_exception();
      try {
        state.onFault(error, describeException(error));
      } catch (...) {
        // Fault handlers are trusted kernel code; swallow defensively.
      }
    }
  }
  state.taskStartNs.store(0, std::memory_order_relaxed);
  state.executed.fetch_add(1, std::memory_order_relaxed);
  // Task latency: metric + a span in the post-mortem trail (timestamps
  // reused from the watchdog bookkeeping — no extra clock read beyond
  // the one closing measurement).
  std::int64_t durationNs = nowNs() - startNs;
  containerMetrics().tasks.increment();
  containerMetrics().taskLatency.record(durationNs);
  obs::Tracer::global().record("container.task", startNs, durationNs);
}

void ThreadContainer::runLoop(const std::shared_ptr<State>& state) {
  ScopedIdentity identity(state->app);
  while (auto task = state->queue.pop()) {
    runOneTask(*state, *task);
  }
  {
    std::lock_guard lock(state->exitMutex);
    state->exited = true;
  }
  state->exitCv.notify_all();
}

}  // namespace sdnshield::iso
