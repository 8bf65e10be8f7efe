// Exact answer oracle for one emulated switch connection.
//
// Every probe packet-in carries a tag (the TCP sequence number of the probed
// packet) and has exactly one correct answer:
//  * to an announced host: one FlowMod (ADD, match = ethDst only, priority
//    10, actions = output to the host's announced port) followed by one
//    PacketOut on that port, from the probe's ingress port, carrying the
//    probe's packet;
//  * to an unannounced host: exactly one flood PacketOut and no FlowMod.
// Anything else fails the operation: a timeout, a wrong field, a missing,
// duplicate or late answer. The oracle is pure bookkeeping — no sockets, no
// clocks — so tests feed it hand-made frames.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "of/flow_mod.h"
#include "of/messages.h"

namespace perfbench {

/// Priority the L2 learning app stamps on its forwarding rules.
inline constexpr std::uint16_t kL2RulePriority = 10;

struct ProbeSpec {
  std::uint32_t tag = 0;
  bool announced = true;
  sdnshield::of::MacAddress dst;
  sdnshield::of::PortNo outPort = 0;  ///< Announced port of dst.
  sdnshield::of::PortNo inPort = 0;   ///< Probe ingress port.
  sdnshield::of::Packet packet;       ///< As the packet-out must echo it.
  std::int64_t sentNs = 0;
};

enum class Failure : std::uint8_t {
  kNone,
  kTimeout,           ///< No answer at all before the deadline.
  kMissingPacketOut,  ///< Flow-mod seen, packet-out never came.
  kWrongFlowMod,      ///< Flow-mod with a wrong command/match/priority/port.
  kWrongPacketOut,    ///< Packet-out with wrong actions/in-port/packet.
  kFlowModForFlood,   ///< Flow-mod for a probe to an unannounced host.
  kMissingFlowMod,    ///< Packet-out to an announced host without flow-mod.
  kDuplicate,         ///< A second answer to an answered probe.
  kLate,              ///< An answer to a probe that had already failed.
  kStray,             ///< An answer matching no probe at all.
};

const char* toString(Failure failure);

struct Outcome {
  enum class Kind : std::uint8_t {
    kProgress,  ///< Accepted part of an answer; the probe is still open.
    kAnswered,  ///< The probe's answer is complete and correct.
    kFailed,    ///< The probe failed (counted once per probe).
    kStray,     ///< A frame attributable to no open probe.
  };
  Kind kind = Kind::kProgress;
  Failure failure = Failure::kNone;
  std::uint32_t tag = 0;
  std::int64_t sentNs = 0;
  /// Answered only: send to the first answer frame (the flow-mod, or the
  /// flood packet-out).
  std::int64_t latencyNs = 0;
  std::int64_t flowModNs = 0;    ///< Answered, announced: flow-mod read.
  std::int64_t packetOutNs = 0;  ///< Answered: packet-out read.

  /// A stray that is a failure of its own (late answers belong to a probe
  /// already counted as failed).
  bool countsAsFailure() const {
    return kind == Kind::kFailed ||
           (kind == Kind::kStray && failure != Failure::kLate);
  }
};

class Oracle {
 public:
  void expect(ProbeSpec probe);

  Outcome onFlowMod(const sdnshield::of::FlowMod& mod, std::int64_t nowNs);
  Outcome onPacketOut(const sdnshield::of::PacketOut& out, std::int64_t nowNs);
  /// Fails every open probe sent more than @p timeoutNs before @p nowNs.
  std::vector<Outcome> expire(std::int64_t nowNs, std::int64_t timeoutNs);

  std::size_t open() const { return pending_.size(); }

 private:
  struct Pending {
    ProbeSpec spec;
    bool gotFlowMod = false;
    std::int64_t flowModNs = 0;
  };

  Outcome fail(std::map<std::uint32_t, Pending>::iterator it, Failure why);

  std::map<std::uint32_t, Pending> pending_;  ///< By tag: oldest first.
  std::unordered_set<std::uint32_t> answered_;
  std::unordered_set<std::uint32_t> failed_;
  /// Destinations of failed announced probes whose flow-mod never came: a
  /// flow-mod arriving for one later is late, not stray.
  std::unordered_multiset<std::uint64_t> failedAwaitingFlowMod_;
};

/// Tag carried by a probe packet (its TCP sequence number); false when the
/// packet is not a probe.
bool probeTag(const sdnshield::of::Packet& packet, std::uint32_t* tag);

}  // namespace perfbench
