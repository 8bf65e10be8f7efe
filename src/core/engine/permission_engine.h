// The permission engine (paper §VI-B): compiles permission manifests into
// flat checking programs and mediates every API call on the enforcement hot
// path. Checking is stateless, allocation-free on the allow path, and safe
// to run from many kernel-deputy threads concurrently.
//
// Hot-path design (see DESIGN.md "Permission hot path"):
//  1. Singleton filters are interned (core/perm/interner.h) so duplicate
//     literals across programs share one slot and one evaluation.
//  2. Filter expressions are optimized before compilation — constant
//     folding (stubs always deny, virtual-topology markers always pass),
//     duplicate-operand elimination, complement detection (X AND NOT X),
//     cheap-filters-first reordering — and compiled to a branch program
//     with short-circuit jumps evaluated by a single-register VM (no
//     evaluation stack to overflow).
// CompiledPermissions::check is the one decision path: the deputies call it
// on the program they hold, and PermissionEngine::check resolves the app's
// program from the current epoch snapshot and calls it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/perm/api_call.h"
#include "core/perm/filter.h"
#include "core/perm/permission.h"

namespace sdnshield::engine {

/// The outcome of a permission check.
struct Decision {
  bool allowed = false;
  /// Populated on deny: which token was missing or which filter failed.
  std::string reason;

  static Decision allow() { return Decision{true, {}}; }
  static Decision deny(std::string reason) {
    return Decision{false, std::move(reason)};
  }
};

/// A permission set compiled to per-token short-circuit branch programs.
class CompiledPermissions {
 public:
  /// Nesting depth bound of one compiled filter program (after
  /// optimization, which flattens AND/OR chains and folds NOT-chains, so
  /// only pathologically alternating expressions hit it). Deeper
  /// expressions make the constructor throw std::length_error.
  static constexpr std::size_t kMaxProgramDepth = 64;

  /// Recursion guard for the optimizer/compiler on raw (pre-flattening)
  /// trees; parser- or algebra-built chains beyond this are rejected with
  /// std::length_error before any recursive pass runs.
  static constexpr std::size_t kMaxExpressionDepth = 4096;

  explicit CompiledPermissions(const perm::PermissionSet& permissions);

  /// Evaluates the call against the compiled program. The required token
  /// must be granted and its filter program must label the call true.
  Decision check(const perm::ApiCall& call) const;

  bool hasToken(perm::Token token) const;

  /// First physical-topology filter granted on visible_topology, if any —
  /// the deputy uses it to project topology reads.
  const perm::PhysicalTopologyFilter* topologyProjection() const {
    return topologyProjection_.get();
  }

  /// Virtual-topology members when a VIRTUAL filter is granted on
  /// visible_topology (empty set = SINGLE_BIG_SWITCH over everything).
  const std::optional<std::set<of::DatapathId>>& virtualTopology() const {
    return virtualMembers_;
  }

  /// Source permissions (for introspection / reporting).
  const perm::PermissionSet& source() const { return source_; }

  /// Instructions in a token's compiled program (0 = unrestricted grant or
  /// token absent); introspection for tests and benches — the optimizer's
  /// folds show up as shorter programs.
  std::size_t programLength(perm::Token token) const;

 private:
  // One-register branch VM. kPush loads a filter label into the register;
  // kJumpIfFalse/kJumpIfTrue short-circuit AND/OR: taken, the register
  // already holds the result; not taken, the right operand overwrites it.
  enum class OpCode : std::uint8_t {
    kPush,         ///< reg = filters_[arg]->evaluate(call)
    kNot,          ///< reg = !reg
    kJumpIfFalse,  ///< if (!reg) goto arg
    kJumpIfTrue,   ///< if (reg) goto arg
    kConst,        ///< reg = (arg != 0)
  };
  struct Instr {
    OpCode op = OpCode::kPush;
    std::uint32_t arg = 0;  // Filter index, jump target, or constant.
  };
  struct TokenProgram {
    bool granted = false;
    std::vector<Instr> code;  // Empty = unrestricted grant.
  };

  void compileExpr(const perm::FilterExprPtr& expr, TokenProgram& program);
  std::uint32_t filterSlot(const perm::FilterPtr& filter);
  bool run(const TokenProgram& program, const perm::ApiCall& call) const;

  perm::PermissionSet source_;
  // Indexed by Token enum value; all 16 tokens (incl. market_admin) fit
  // exactly — widen when perm::Token grows past 16 values.
  TokenProgram programs_[16];
  std::vector<perm::FilterPtr> filters_;  // Interned + deduplicated.
  std::map<const perm::Filter*, std::uint32_t> filterSlots_;
  std::shared_ptr<const perm::PhysicalTopologyFilter> topologyProjection_;
  std::optional<std::set<of::DatapathId>> virtualMembers_;
};

/// Process-wide cache of compiled permission programs, keyed on the
/// canonical text of the source permission set (PermissionSet::toString is
/// deterministic — tokens live in a std::map). CompiledPermissions is
/// app-agnostic and immutable, so one compiled object is safely shared
/// across apps, engines, and permission epochs; a market-wide updatePolicy
/// where most apps keep their grants compiles each distinct set once
/// instead of once per app. Entries hold strong references; at capacity the
/// least-recently-obtained entry is evicted (outstanding shared_ptrs stay
/// valid as long as any holder keeps them), so a market whose distinct-set population
/// exceeds the capacity keeps its hot programs cached instead of losing the
/// whole table to a wholesale clear.
class CompiledProgramCache {
 public:
  /// Default capacity: the LRU eviction threshold. Far above any real
  /// market (10k apps share a handful of policy-shaped sets).
  static constexpr std::size_t kMaxEntries = 4096;

  /// The process-wide cache used by PermissionEngine::install/installAll.
  static CompiledProgramCache& global();

  /// The compiled program for @p permissions: an existing entry when one
  /// matches, else a fresh compilation (outside the lock; concurrent
  /// compilers of the same set race benignly — first insert wins, both
  /// callers get the winner). Compilation errors (std::length_error)
  /// propagate and cache nothing. When disabled, always compiles fresh.
  std::shared_ptr<const CompiledPermissions> obtain(
      const perm::PermissionSet& permissions);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< Fresh compilations (incl. disabled mode).
    std::uint64_t evictions = 0;  ///< LRU evictions at capacity.
    std::size_t entries = 0;
  };
  Stats stats() const;

  /// Drops every entry (outstanding programs stay valid). Test hook.
  void clear();

  /// Bench/test hook: disabled, obtain() compiles fresh every call —
  /// the PR 5 behaviour — so before/after comparisons run in one binary.
  void setEnabled(bool enabled);
  bool enabled() const;

  /// Test hook: shrinks the LRU capacity (evicting cold entries as needed)
  /// so eviction behaviour is testable without 4k compilations.
  void setMaxEntries(std::size_t maxEntries);
  std::size_t maxEntries() const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledPermissions> program;
    /// Position in lru_; spliced to the front on every hit.
    std::list<std::string>::iterator recency;
  };

  /// Evicts from the LRU tail until size < maxEntries_. Caller holds mutex_.
  void evictToCapacityLocked();

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< Front = most recently obtained.
  std::size_t maxEntries_ = kMaxEntries;
  bool enabled_ = true;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Registry of compiled permissions per app, the controller-wide mediator.
/// The kernel app (id 0) is always fully privileged.
///
/// The table is an immutable app -> program map replaced copy-and-swap by
/// every writer. check() copies the current map pointer under a
/// micro-mutex held for one shared_ptr copy, then runs the app's program
/// with no lock held, so readers never wait on a compiler or on each
/// other. (libstdc++'s std::atomic<std::shared_ptr> is the same thing — an
/// embedded spinlock — but its GCC 12 implementation unlocks with a relaxed
/// RMW in load(), a formal data race that TSan reports; the plain mutex is
/// equivalent in cost and standard-clean.)
class PermissionEngine {
 public:
  PermissionEngine();

  /// Compiles and installs the permissions of an app (at app load time).
  void install(of::AppId app, const perm::PermissionSet& permissions);
  void uninstall(of::AppId app);

  /// Atomically replaces the grants of many apps in ONE permission epoch:
  /// every set is compiled outside the locks, then a single table
  /// copy-and-swap publishes all of them together with one version bump.
  /// A concurrent check() observes either every pre-swap grant or every
  /// post-swap grant — never a mixture — which is what makes a live
  /// updatePolicy over the whole app market safe (the RCU-style epoch swap
  /// the market subsystem builds on). Throws (std::length_error from
  /// compilation) without touching the table.
  void installAll(
      const std::vector<std::pair<of::AppId, perm::PermissionSet>>& grants);

  /// installAll for callers that already hold compiled programs (the
  /// market's incremental updatePolicy: one CompiledProgramCache::obtain
  /// per reconcile unit, every member app sharing the program). Skips the
  /// per-app compile/lookup entirely — the swap cost is one map insert per
  /// app — and bumps the epoch once, exactly like the compiling overload.
  /// Programs are app-agnostic, so sharing one across apps is
  /// decision-safe.
  void installAll(
      std::vector<std::pair<of::AppId,
                            std::shared_ptr<const CompiledPermissions>>>
          programs);

  /// Current permission epoch: bumped once per install/uninstall/installAll
  /// swap, inside the same critical section as the swap. Two equal reads
  /// bracket a window in which no grant changed: every check() between
  /// them, on any thread, ran against the table of that epoch.
  std::uint64_t epoch() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Number of apps with installed permissions (leak-detection surface).
  std::size_t installedCount() const { return snapshot()->size(); }

  /// Checks one API call: resolves the app's program from the current
  /// snapshot and runs CompiledPermissions::check. Unknown apps are denied
  /// everything.
  Decision check(const perm::ApiCall& call) const;

  /// Compiled permissions of an app (nullptr when not installed).
  std::shared_ptr<const CompiledPermissions> compiled(of::AppId app) const;

  /// No-op. The engine keeps no per-thread decision state; kept only for
  /// the benchmark harness (perfbench/), which still calls it.
  static void resetThreadMemo();

 private:
  using AppMap = std::map<of::AppId, std::shared_ptr<const CompiledPermissions>>;

  std::shared_ptr<const AppMap> snapshot() const {
    std::lock_guard lock(snapshotMutex_);
    return apps_;
  }

  /// The one writer path: copies the table, applies @p edit to the copy,
  /// then swaps it in and bumps version_ under snapshotMutex_.
  void publish(const std::function<void(AppMap&)>& edit);

  /// Guards apps_ and orders every version_ bump with its swap (held for a
  /// shared_ptr copy or swap, never for compilation or map copying).
  mutable std::mutex snapshotMutex_;
  std::shared_ptr<const AppMap> apps_;
  std::mutex writeMutex_;  // Serializes publish() copy-and-swap.
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace sdnshield::engine
