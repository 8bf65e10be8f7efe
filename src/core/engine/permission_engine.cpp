#include "core/engine/permission_engine.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/perm/interner.h"
#include "obs/metrics.h"

namespace sdnshield::engine {

namespace {

std::size_t tokenIndex(perm::Token token) {
  return static_cast<std::size_t>(token);
}

/// Scans positive positions of a filter expression for topology filters.
void scanTopologyFilters(
    const perm::FilterExprPtr& expr,
    std::shared_ptr<const perm::PhysicalTopologyFilter>& physical,
    std::optional<std::set<of::DatapathId>>& virtualMembers) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton: {
      const perm::FilterPtr& filter = expr->filter();
      if (!physical) {
        if (auto topo =
                std::dynamic_pointer_cast<const perm::PhysicalTopologyFilter>(
                    filter)) {
          physical = topo;
        }
      }
      if (!virtualMembers) {
        if (const auto* vt = dynamic_cast<const perm::VirtualTopologyFilter*>(
                filter.get())) {
          virtualMembers = vt->members();
        }
      }
      return;
    }
    case Op::kAnd:
    case Op::kOr:
      scanTopologyFilters(expr->lhs(), physical, virtualMembers);
      scanTopologyFilters(expr->rhs(), physical, virtualMembers);
      return;
    case Op::kNot:
      return;  // Negated topology filters are not projection hints.
  }
}

// --- expression optimizer ---------------------------------------------------

/// Maximum nesting depth, computed without recursion so that adversarially
/// deep trees cannot overflow the C++ stack before we reject them.
std::size_t expressionDepth(const perm::FilterExprPtr& root) {
  using Op = perm::FilterExpr::Op;
  std::size_t maxDepth = 0;
  std::vector<std::pair<const perm::FilterExpr*, std::size_t>> work;
  work.emplace_back(root.get(), 1);
  while (!work.empty()) {
    auto [expr, depth] = work.back();
    work.pop_back();
    maxDepth = std::max(maxDepth, depth);
    switch (expr->op()) {
      case Op::kSingleton:
        break;
      case Op::kAnd:
      case Op::kOr:
        work.emplace_back(expr->lhs().get(), depth + 1);
        work.emplace_back(expr->rhs().get(), depth + 1);
        break;
      case Op::kNot:
        work.emplace_back(expr->lhs().get(), depth + 1);
        break;
    }
  }
  return maxDepth;
}

/// Filters whose label is independent of the call: unresolved stubs fail
/// closed, virtual-topology markers always pass (translation happens in the
/// deputy, not here).
std::optional<bool> constantValue(const perm::Filter& filter) {
  switch (filter.kind()) {
    case perm::FilterKind::kStub:
      return false;
    case perm::FilterKind::kVirtualTopology:
      return true;
    default:
      return std::nullopt;
  }
}

/// Evaluation-cost rank used for short-circuit reordering: cheap
/// exact-match filters run before action/predicate scans, wildcard mask
/// tests and topology set lookups; composite subtrees run last.
int filterCostRank(const perm::Filter& filter) {
  switch (filter.kind()) {
    case perm::FilterKind::kOwnership:
    case perm::FilterKind::kMaxPriority:
    case perm::FilterKind::kMinPriority:
    case perm::FilterKind::kTableSize:
    case perm::FilterKind::kPktOut:
    case perm::FilterKind::kStatistics:
    case perm::FilterKind::kCallback:
      return 0;  // One or two integer compares.
    case perm::FilterKind::kAction:
    case perm::FilterKind::kFieldPredicate:
      return 1;  // Optional-field lookups / short scans.
    case perm::FilterKind::kWildcard:
      return 2;  // Mask arithmetic over the match.
    case perm::FilterKind::kPhysicalTopology:
      return 3;  // Set lookups over switches and links.
    case perm::FilterKind::kVirtualTopology:
    case perm::FilterKind::kStub:
      return 0;  // Constant-folded away; rank is moot.
  }
  return 3;
}

/// An optimized expression: either a known constant or a residual tree.
struct OptExpr {
  std::optional<bool> constant;
  perm::FilterExprPtr expr;  // Set iff !constant.

  static OptExpr constval(bool value) { return OptExpr{value, nullptr}; }
  static OptExpr tree(perm::FilterExprPtr expr) {
    return OptExpr{std::nullopt, std::move(expr)};
  }
};

int exprCostRank(const perm::FilterExprPtr& expr) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton:
      return filterCostRank(*expr->filter());
    case Op::kNot:
      return exprCostRank(expr->lhs());
    case Op::kAnd:
    case Op::kOr:
      // Composite subtrees go last; deeper ones later still.
      return 8 + static_cast<int>(std::min<std::size_t>(expr->leafCount(), 64));
  }
  return 8;
}

OptExpr optimizeExpr(const perm::FilterExprPtr& expr);

/// Flattens a run of same-op nodes into operand list form, optimizing each
/// operand. `identity` is the op's neutral constant (true for AND, false
/// for OR); hitting the absorbing constant short-circuits the whole chain.
bool gatherOperands(const perm::FilterExprPtr& expr, perm::FilterExpr::Op op,
                    bool identity, std::vector<perm::FilterExprPtr>& out) {
  if (expr->op() == op) {
    return gatherOperands(expr->lhs(), op, identity, out) &&
           gatherOperands(expr->rhs(), op, identity, out);
  }
  OptExpr opt = optimizeExpr(expr);
  if (opt.constant) {
    if (*opt.constant == identity) return true;  // Neutral: drop operand.
    return false;                                // Absorbing: chain decided.
  }
  out.push_back(std::move(opt.expr));
  return true;
}

/// Structural identity key of an optimized subtree: its canonical
/// (hash-consed) pointer. Structurally equal subtrees intern to the same
/// node, so dedup and complement detection are pointer-map lookups — the
/// previous toString-keyed map dominated compile time (20–60× regression on
/// BM_ManifestCompilation). Only runs at compile time.
const perm::FilterExpr* structuralKey(const perm::FilterExprPtr& expr) {
  // The interner keeps the canonical node alive forever; the raw pointer
  // outlives this map.
  return perm::internExpr(expr).get();
}

OptExpr optimizeChain(const perm::FilterExprPtr& expr,
                      perm::FilterExpr::Op op) {
  using Op = perm::FilterExpr::Op;
  bool isAnd = op == Op::kAnd;
  bool identity = isAnd;  // true AND x == x; false OR x == x.

  std::vector<perm::FilterExprPtr> operands;
  if (!gatherOperands(expr, op, identity, operands)) {
    return OptExpr::constval(!identity);  // Absorbing constant seen.
  }

  // Duplicate-operand elimination and complement detection: `x OP x == x`,
  // and `x AND NOT x` / `x OR NOT x` collapse to the absorbing constant.
  std::unordered_map<const perm::FilterExpr*, bool> seen;  // -> kNot polarity
  std::vector<perm::FilterExprPtr> unique;
  unique.reserve(operands.size());
  for (perm::FilterExprPtr& operand : operands) {
    bool negatedForm = operand->op() == Op::kNot;
    const perm::FilterExpr* key =
        structuralKey(negatedForm ? operand->lhs() : operand);
    auto [it, inserted] = seen.emplace(key, negatedForm);
    if (inserted) {
      unique.push_back(std::move(operand));
      continue;
    }
    if (it->second != negatedForm) {
      return OptExpr::constval(!identity);  // x and NOT x both present.
    }
    // Exact duplicate: drop.
  }

  if (unique.empty()) return OptExpr::constval(identity);
  if (unique.size() == 1) return OptExpr::tree(std::move(unique[0]));

  // Short-circuit reordering: cheap filters first (stable to keep the
  // original order among equal-cost operands deterministic).
  std::stable_sort(unique.begin(), unique.end(),
                   [](const perm::FilterExprPtr& a,
                      const perm::FilterExprPtr& b) {
                     return exprCostRank(a) < exprCostRank(b);
                   });

  // Rebuild as a balanced tree: depth O(log n), so long parser-built
  // chains stay far below kMaxProgramDepth.
  std::vector<perm::FilterExprPtr> level = std::move(unique);
  while (level.size() > 1) {
    std::vector<perm::FilterExprPtr> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(isAnd ? perm::FilterExpr::conj(level[i], level[i + 1])
                           : perm::FilterExpr::disj(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return OptExpr::tree(std::move(level[0]));
}

OptExpr optimizeExpr(const perm::FilterExprPtr& expr) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton: {
      perm::FilterPtr interned =
          perm::FilterInterner::global().intern(expr->filter());
      if (std::optional<bool> constant = constantValue(*interned)) {
        return OptExpr::constval(*constant);
      }
      if (interned.get() == expr->filter().get()) return OptExpr::tree(expr);
      return OptExpr::tree(perm::FilterExpr::singleton(std::move(interned)));
    }
    case Op::kNot: {
      OptExpr operand = optimizeExpr(expr->lhs());
      if (operand.constant) return OptExpr::constval(!*operand.constant);
      if (operand.expr->op() == Op::kNot) {
        return OptExpr::tree(operand.expr->lhs());  // NOT NOT x == x.
      }
      return OptExpr::tree(perm::FilterExpr::negate(std::move(operand.expr)));
    }
    case Op::kAnd:
    case Op::kOr:
      return optimizeChain(expr, expr->op());
  }
  return OptExpr::tree(expr);
}

// Registry-backed hot-path counters (the registry aggregates across
// threads, so harnesses can report counts for checks that ran on deputy
// threads). Namespace-scope handles: slot resolution happens once at
// dynamic init, so the hot path pays only the shard write — no
// function-local-static guard load.
const obs::Counter g_checkDenied =
    obs::Registry::global().counter("engine.check.denied");
const obs::Counter g_vmRuns =
    obs::Registry::global().counter("engine.check.vm_runs");
const obs::Counter g_vmSteps =
    obs::Registry::global().counter("engine.check.vm_steps");
const obs::Counter g_compileCacheHit =
    obs::Registry::global().counter("engine.compile.cache_hit");
const obs::Counter g_compileCacheMiss =
    obs::Registry::global().counter("engine.compile.cache_miss");
const obs::Counter g_compileCacheEvict =
    obs::Registry::global().counter("engine.compile.cache_evict");

}  // namespace

// --- CompiledPermissions ----------------------------------------------------

CompiledPermissions::CompiledPermissions(
    const perm::PermissionSet& permissions)
    : source_(permissions) {
  for (const perm::Permission& grant : permissions.permissions()) {
    TokenProgram& program = programs_[tokenIndex(grant.token)];
    program.granted = true;
    if (!grant.filter) continue;
    if (std::size_t depth = expressionDepth(grant.filter);
        depth > kMaxExpressionDepth) {
      throw std::length_error(
          "permission filter for '" + perm::toString(grant.token) +
          "' is nested " + std::to_string(depth) +
          " levels deep; the compiler accepts at most " +
          std::to_string(kMaxExpressionDepth));
    }
    OptExpr optimized = optimizeExpr(grant.filter);
    if (optimized.constant) {
      // Always-true folds to the unrestricted grant (empty program);
      // always-false (e.g. an unresolved stub) compiles to a single deny.
      if (!*optimized.constant) {
        program.code.push_back(Instr{OpCode::kConst, 0});
      }
    } else {
      if (std::size_t depth = expressionDepth(optimized.expr);
          depth > kMaxProgramDepth) {
        throw std::length_error(
            "permission filter for '" + perm::toString(grant.token) +
            "' still nests " + std::to_string(depth) +
            " levels after optimization; compiled programs are bounded at " +
            std::to_string(kMaxProgramDepth) + " levels");
      }
      compileExpr(optimized.expr, program);
    }
    if (grant.token == perm::Token::kVisibleTopology) {
      scanTopologyFilters(grant.filter, topologyProjection_, virtualMembers_);
    }
  }
}

std::uint32_t CompiledPermissions::filterSlot(const perm::FilterPtr& filter) {
  auto [it, inserted] = filterSlots_.try_emplace(
      filter.get(), static_cast<std::uint32_t>(filters_.size()));
  if (inserted) filters_.push_back(filter);
  return it->second;
}

void CompiledPermissions::compileExpr(const perm::FilterExprPtr& expr,
                                      TokenProgram& program) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton:
      program.code.push_back(Instr{OpCode::kPush, filterSlot(expr->filter())});
      return;
    case Op::kAnd:
    case Op::kOr: {
      compileExpr(expr->lhs(), program);
      std::size_t jumpAt = program.code.size();
      program.code.push_back(Instr{expr->op() == Op::kAnd
                                       ? OpCode::kJumpIfFalse
                                       : OpCode::kJumpIfTrue,
                                   0});
      compileExpr(expr->rhs(), program);
      program.code[jumpAt].arg =
          static_cast<std::uint32_t>(program.code.size());
      return;
    }
    case Op::kNot:
      compileExpr(expr->lhs(), program);
      program.code.push_back(Instr{OpCode::kNot, 0});
      return;
  }
}

bool CompiledPermissions::run(const TokenProgram& program,
                              const perm::ApiCall& call) const {
  if (program.code.empty()) return true;  // Unrestricted grant.
  // Single-register branch VM: short-circuit jumps mean a binary boolean
  // expression never holds more than one intermediate value, so there is no
  // evaluation stack to bound (the seed engine's fixed 64-slot stack could
  // overflow on deep right-leaning expressions).
  bool reg = false;
  const Instr* code = program.code.data();
  std::size_t size = program.code.size();
  std::uint64_t steps = 0;  // Executed instructions (obs; local until exit).
  for (std::size_t pc = 0; pc < size;) {
    const Instr& instr = code[pc];
    ++steps;
    switch (instr.op) {
      case OpCode::kPush:
        reg = filters_[instr.arg]->evaluate(call);
        ++pc;
        break;
      case OpCode::kNot:
        reg = !reg;
        ++pc;
        break;
      case OpCode::kJumpIfFalse:
        pc = reg ? pc + 1 : instr.arg;
        break;
      case OpCode::kJumpIfTrue:
        pc = reg ? instr.arg : pc + 1;
        break;
      case OpCode::kConst:
        reg = instr.arg != 0;
        ++pc;
        break;
    }
  }
  g_vmRuns.add(1);
  g_vmSteps.add(steps);
  return reg;
}

Decision CompiledPermissions::check(const perm::ApiCall& call) const {
  perm::Token token = perm::requiredToken(call.type);
  const TokenProgram& program = programs_[tokenIndex(token)];
  if (!program.granted) {
    return Decision::deny("missing permission token '" +
                          perm::toString(token) + "'");
  }
  if (!run(program, call)) {
    return Decision::deny("permission filter on '" + perm::toString(token) +
                          "' rejected " + call.toString());
  }
  return Decision::allow();
}

bool CompiledPermissions::hasToken(perm::Token token) const {
  return programs_[tokenIndex(token)].granted;
}

std::size_t CompiledPermissions::programLength(perm::Token token) const {
  return programs_[tokenIndex(token)].code.size();
}

// --- CompiledProgramCache ---------------------------------------------------

CompiledProgramCache& CompiledProgramCache::global() {
  static CompiledProgramCache* cache =
      new CompiledProgramCache();  // Never destroyed.
  return *cache;
}

std::shared_ptr<const CompiledPermissions> CompiledProgramCache::obtain(
    const perm::PermissionSet& permissions) {
  // toString is the canonical identity: PermissionSet keeps tokens in a
  // std::map, so equal sets print identically regardless of build order.
  std::string key = permissions.toString();
  {
    std::lock_guard lock(mutex_);
    if (enabled_) {
      if (auto it = entries_.find(key); it != entries_.end()) {
        ++hits_;
        g_compileCacheHit.add(1);
        // LRU touch: an obtained program is hot and must survive an insert
        // storm of cold sets.
        lru_.splice(lru_.begin(), lru_, it->second.recency);
        return it->second.program;
      }
    }
  }
  // Compile outside the lock — the expensive part, and it can throw.
  auto compiled = std::make_shared<const CompiledPermissions>(permissions);
  std::lock_guard lock(mutex_);
  ++misses_;
  g_compileCacheMiss.add(1);
  if (!enabled_) return compiled;
  if (auto it = entries_.find(key); it != entries_.end()) {
    // Lost a compile race: prefer the incumbent so every caller shares one
    // program.
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return it->second.program;
  }
  lru_.push_front(key);
  entries_.emplace(std::move(key), Entry{compiled, lru_.begin()});
  evictToCapacityLocked();
  return compiled;
}

void CompiledProgramCache::evictToCapacityLocked() {
  while (entries_.size() > maxEntries_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    g_compileCacheEvict.add(1);
  }
}

CompiledProgramCache::Stats CompiledProgramCache::stats() const {
  std::lock_guard lock(mutex_);
  return Stats{hits_, misses_, evictions_, entries_.size()};
}

void CompiledProgramCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  lru_.clear();
}

void CompiledProgramCache::setEnabled(bool enabled) {
  std::lock_guard lock(mutex_);
  enabled_ = enabled;
  if (!enabled) {
    entries_.clear();
    lru_.clear();
  }
}

bool CompiledProgramCache::enabled() const {
  std::lock_guard lock(mutex_);
  return enabled_;
}

void CompiledProgramCache::setMaxEntries(std::size_t maxEntries) {
  std::lock_guard lock(mutex_);
  maxEntries_ = maxEntries == 0 ? 1 : maxEntries;
  evictToCapacityLocked();
}

std::size_t CompiledProgramCache::maxEntries() const {
  std::lock_guard lock(mutex_);
  return maxEntries_;
}

// --- PermissionEngine -------------------------------------------------------

PermissionEngine::PermissionEngine()
    : apps_(std::make_shared<const AppMap>()) {}

void PermissionEngine::publish(const std::function<void(AppMap&)>& edit) {
  std::lock_guard lock(writeMutex_);
  auto next = std::make_shared<AppMap>(*snapshot());
  edit(*next);
  // Swap and bump in one critical section: a check() that reads the table
  // after the swap also reads the new epoch, which is what makes two equal
  // epoch() reads an exact bracket.
  std::lock_guard snapLock(snapshotMutex_);
  apps_ = std::move(next);
  version_.fetch_add(1, std::memory_order_release);
}

void PermissionEngine::install(of::AppId app,
                               const perm::PermissionSet& permissions) {
  auto compiled = CompiledProgramCache::global().obtain(permissions);
  publish([&](AppMap& apps) { apps[app] = std::move(compiled); });
}

void PermissionEngine::installAll(
    const std::vector<std::pair<of::AppId, perm::PermissionSet>>& grants) {
  // Compile every set before taking any lock: compilation can throw
  // (depth bounds) and is the expensive part; a failure here leaves the
  // table untouched, and readers never wait on a compiler.
  std::vector<std::pair<of::AppId, std::shared_ptr<const CompiledPermissions>>>
      compiled;
  compiled.reserve(grants.size());
  for (const auto& [app, permissions] : grants) {
    // Shared compiled-program cache: apps with identical grants (the common
    // case after a market-wide policy push) compile once and share the
    // program — and re-pushing an unchanged set is a pure lookup.
    compiled.emplace_back(app, CompiledProgramCache::global().obtain(permissions));
  }
  installAll(std::move(compiled));
}

void PermissionEngine::installAll(
    std::vector<std::pair<of::AppId, std::shared_ptr<const CompiledPermissions>>>
        programs) {
  // One publish for the whole batch: the new epoch carries every new grant.
  publish([&](AppMap& apps) {
    for (auto& [app, set] : programs) apps[app] = std::move(set);
  });
}

void PermissionEngine::uninstall(of::AppId app) {
  publish([app](AppMap& apps) { apps.erase(app); });
}

Decision PermissionEngine::check(const perm::ApiCall& call) const {
  if (call.app == of::kKernelAppId) return Decision::allow();
  // The snapshot keeps the program alive for the check.
  std::shared_ptr<const AppMap> apps = snapshot();
  auto it = apps->find(call.app);
  if (it == apps->end()) {
    return Decision::deny("app " + std::to_string(call.app) +
                          " has no installed permissions");
  }
  Decision decision = it->second->check(call);
  if (!decision.allowed) g_checkDenied.add(1);
  return decision;
}

std::shared_ptr<const CompiledPermissions> PermissionEngine::compiled(
    of::AppId app) const {
  std::shared_ptr<const AppMap> apps = snapshot();
  auto it = apps->find(app);
  return it == apps->end() ? nullptr : it->second;
}

void PermissionEngine::resetThreadMemo() {}

}  // namespace sdnshield::engine
