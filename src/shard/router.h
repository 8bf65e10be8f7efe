// Deterministic shard routing (DESIGN.md §16): every dpid hashes to exactly
// one shard, with fixed constants so the mapping is stable across
// processes, runs and shard-runtime restarts — the campaign's determinism
// contract (same seed => byte-identical scorecard) extends to any shard
// count because routing never depends on load, time or pointers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "of/types.h"

namespace sdnshield::shard {

/// splitmix64 finalizer: full-avalanche mixing so dense dpid ranges
/// (1..N from the topology generators) spread evenly across shards.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Router {
 public:
  explicit Router(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const { return shards_; }

  /// Home shard of a switch: all packet-ins punted by dpid dispatch on this
  /// shard's loop.
  std::size_t shardOf(of::DatapathId dpid) const {
    return static_cast<std::size_t>(mix64(dpid)) % shards_;
  }

 private:
  std::size_t shards_;
};

}  // namespace sdnshield::shard
