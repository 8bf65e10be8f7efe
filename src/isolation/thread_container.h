// Thread containers: the unit of sandboxing (paper §VI-A). App code runs on
// an unprivileged thread whose ambient identity is the app id; the trusted
// kernel runs on privileged threads (identity kKernelAppId). Identity is
// thread-local and inherited by threads an app spawns, mirroring the Java
// design where children inherit the parent's protection domain.
//
// Fault containment: a task that throws is caught, counted and reported to
// the registered fault handler instead of escaping run() and terminating
// the process. A container whose task hangs can be quarantined (queue
// closed, pending tasks discarded) and its thread abandoned — the worker
// owns the container state via shared_ptr, so detaching is memory-safe.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "isolation/channel.h"
#include "of/flow_mod.h"

namespace sdnshield::iso {

/// Ambient per-thread principal. Kernel threads (and the main thread) carry
/// kKernelAppId.
of::AppId currentAppId();

/// Human-readable message for an in-flight exception (fault reporting).
std::string describeException(std::exception_ptr error);

/// RAII: runs the enclosing scope under @p app's identity. Used by thread
/// containers; tests may use it to simulate call contexts.
class ScopedIdentity {
 public:
  explicit ScopedIdentity(of::AppId app);
  ~ScopedIdentity();

  ScopedIdentity(const ScopedIdentity&) = delete;
  ScopedIdentity& operator=(const ScopedIdentity&) = delete;

 private:
  of::AppId previous_;
};

/// Spawns a thread inheriting the *calling* thread's identity — the rule
/// that stops an app laundering privileges through a fresh thread.
std::thread spawnInheriting(std::function<void()> body);

/// A single app's sandboxed execution context: one worker thread with a task
/// queue. Event handlers and init code are posted here; everything posted
/// runs under the app's identity.
class ThreadContainer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Invoked on the container thread after a task throws. Must not throw.
  using FaultHandler =
      std::function<void(std::exception_ptr error, const std::string& what)>;

  static constexpr std::chrono::milliseconds kDefaultWaitDeadline{60000};

  ThreadContainer(of::AppId app, std::string name,
                  std::size_t queueCapacity = 4096);
  ~ThreadContainer();

  ThreadContainer(const ThreadContainer&) = delete;
  ThreadContainer& operator=(const ThreadContainer&) = delete;

  /// Registers the fault sink (supervision wiring). Call before start().
  void setFaultHandler(FaultHandler handler);

  void start();
  /// Closes the queue, drains remaining tasks and joins. If the worker is
  /// stuck in a task beyond @p joinTimeout it is abandoned (detached) so the
  /// caller is never wedged on a hung app; the shared state keeps the
  /// detached thread memory-safe.
  void stop(std::chrono::milliseconds joinTimeout = kDefaultWaitDeadline);
  /// Supervisor action: closes the queue and *discards* pending tasks
  /// (postAndWait waiters return false). Does not join — safe to call from any
  /// thread, including the container's own.
  void quarantine();

  /// Enqueues a task for the app thread. Returns false after stop().
  bool post(std::function<void()> task);
  /// Non-blocking post used by the event dispatcher: never stalls the
  /// dispatch path. A full or closed queue counts a dropped task.
  bool tryPost(std::function<void()> task);

  /// Posts and blocks until the task has run (used for app init). Returns
  /// false if the task could not be posted, was discarded by quarantine, or
  /// did not finish within @p timeout. A task exception is rethrown as a
  /// std::runtime_error carrying its describeException text.
  bool postAndWait(std::function<void()> task,
                   std::chrono::milliseconds timeout = kDefaultWaitDeadline);

  of::AppId appId() const { return state_->app; }
  const std::string& name() const { return state_->name; }
  std::size_t pendingTasks() const { return state_->queue.size(); }
  std::uint64_t executedTasks() const { return state_->executed.load(); }
  std::uint64_t faultCount() const { return state_->faults.load(); }
  std::uint64_t droppedTasks() const { return state_->dropped.load(); }
  bool quarantined() const { return state_->quarantined.load(); }

  /// How long the currently running task has been executing (zero when
  /// idle). The watchdog compares this against the task deadline.
  Clock::duration currentTaskRuntime() const;

 private:
  /// Everything the worker thread touches, owned jointly by the container
  /// and the thread body so an abandoned (detached) worker never dangles.
  struct State {
    State(of::AppId app, std::string name, std::size_t queueCapacity)
        : app(app), name(std::move(name)), queue(queueCapacity) {}

    of::AppId app;
    std::string name;
    BoundedMpmcQueue<std::function<void()>> queue;
    FaultHandler onFault;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<std::uint64_t> dropped{0};
    /// steady_clock nanos of the running task's start; 0 when idle.
    std::atomic<std::int64_t> taskStartNs{0};
    std::atomic<bool> quarantined{false};
    /// True when a VirtualExecutor (isolation/executor.h) owns this
    /// container's queue instead of a real worker thread. Decided at
    /// start() and never changes afterwards.
    bool virtualized = false;
    std::mutex exitMutex;
    std::condition_variable exitCv;
    bool exited = false;
  };

  static void runLoop(const std::shared_ptr<State>& state);
  /// One containment-wrapped task execution (identity already established
  /// by the caller) — shared between the real worker loop and the virtual
  /// scheduler's inline steps.
  static void runOneTask(State& state, std::function<void()>& task);
  /// Enqueues into the virtual scheduler, wrapped to run under the app's
  /// identity with full containment.
  static bool postVirtual(const std::shared_ptr<State>& state,
                          std::function<void()> task);

  std::shared_ptr<State> state_;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace sdnshield::iso
