#include "oracle.h"

#include <algorithm>
#include <variant>

namespace perfbench {

namespace of = sdnshield::of;

const char* toString(Failure failure) {
  switch (failure) {
    case Failure::kNone:
      return "none";
    case Failure::kTimeout:
      return "timeout";
    case Failure::kMissingPacketOut:
      return "missing_packet_out";
    case Failure::kWrongFlowMod:
      return "wrong_flow_mod";
    case Failure::kWrongPacketOut:
      return "wrong_packet_out";
    case Failure::kFlowModForFlood:
      return "flow_mod_for_unannounced_host";
    case Failure::kMissingFlowMod:
      return "missing_flow_mod";
    case Failure::kDuplicate:
      return "duplicate";
    case Failure::kLate:
      return "late";
    case Failure::kStray:
      return "stray";
  }
  return "unknown";
}

bool probeTag(const of::Packet& packet, std::uint32_t* tag) {
  if (!packet.tcp) return false;
  *tag = packet.tcp->seq;
  return true;
}

namespace {

bool singleOutput(const of::ActionList& actions, of::PortNo port) {
  if (actions.size() != 1) return false;
  const auto* output = std::get_if<of::OutputAction>(&actions.front());
  return output != nullptr && output->port == port;
}

}  // namespace

void Oracle::expect(ProbeSpec probe) {
  std::uint32_t tag = probe.tag;
  pending_[tag] = Pending{std::move(probe)};
}

Outcome Oracle::fail(std::map<std::uint32_t, Pending>::iterator it,
                     Failure why) {
  Outcome outcome;
  outcome.kind = Outcome::Kind::kFailed;
  outcome.failure = why;
  outcome.tag = it->first;
  outcome.sentNs = it->second.spec.sentNs;
  failed_.insert(it->first);
  if (it->second.spec.announced && !it->second.gotFlowMod &&
      why != Failure::kWrongFlowMod) {
    failedAwaitingFlowMod_.insert(it->second.spec.dst.toUint64());
  }
  pending_.erase(it);
  return outcome;
}

Outcome Oracle::onFlowMod(const of::FlowMod& mod, std::int64_t nowNs) {
  Outcome stray;
  stray.kind = Outcome::Kind::kStray;
  stray.failure = Failure::kStray;
  if (!mod.match.ethDst) return stray;
  // Answers arrive in probe order on a connection, so a flow-mod for the
  // destination of a failed probe still owed one is that probe's, late.
  auto late = failedAwaitingFlowMod_.find(mod.match.ethDst->toUint64());
  if (late != failedAwaitingFlowMod_.end()) {
    failedAwaitingFlowMod_.erase(late);
    stray.failure = Failure::kLate;
    return stray;
  }
  // A flow-mod carries no tag: it belongs to the oldest open probe to its
  // destination that has not had its flow-mod yet.
  auto it = std::find_if(pending_.begin(), pending_.end(), [&](const auto& p) {
    return !p.second.gotFlowMod && p.second.spec.dst == *mod.match.ethDst;
  });
  if (it == pending_.end()) return stray;
  const ProbeSpec& spec = it->second.spec;
  if (!spec.announced) return fail(it, Failure::kFlowModForFlood);
  of::FlowMatch expectedMatch;
  expectedMatch.ethDst = spec.dst;
  if (mod.command != of::FlowModCommand::kAdd || !(mod.match == expectedMatch) ||
      mod.priority != kL2RulePriority || !singleOutput(mod.actions, spec.outPort)) {
    return fail(it, Failure::kWrongFlowMod);
  }
  it->second.gotFlowMod = true;
  it->second.flowModNs = nowNs;
  Outcome progress;
  progress.tag = it->first;
  progress.sentNs = spec.sentNs;
  return progress;
}

Outcome Oracle::onPacketOut(const of::PacketOut& out, std::int64_t nowNs) {
  Outcome outcome;
  std::uint32_t tag = 0;
  if (!probeTag(out.packet, &tag)) {
    outcome.kind = Outcome::Kind::kStray;
    outcome.failure = Failure::kStray;
    return outcome;
  }
  auto it = pending_.find(tag);
  if (it == pending_.end()) {
    outcome.kind = Outcome::Kind::kStray;
    outcome.tag = tag;
    outcome.failure = failed_.count(tag)     ? Failure::kLate
                      : answered_.count(tag) ? Failure::kDuplicate
                                             : Failure::kStray;
    return outcome;
  }
  const Pending& pending = it->second;
  const ProbeSpec& spec = pending.spec;
  of::PortNo port = spec.announced ? spec.outPort : of::ports::kFlood;
  if (out.inPort != spec.inPort || !(out.packet == spec.packet) ||
      !singleOutput(out.actions, port)) {
    return fail(it, Failure::kWrongPacketOut);
  }
  if (spec.announced && !pending.gotFlowMod) {
    return fail(it, Failure::kMissingFlowMod);
  }
  outcome.kind = Outcome::Kind::kAnswered;
  outcome.tag = tag;
  outcome.sentNs = spec.sentNs;
  outcome.flowModNs = pending.flowModNs;
  outcome.packetOutNs = nowNs;
  outcome.latencyNs =
      (spec.announced ? pending.flowModNs : nowNs) - spec.sentNs;
  answered_.insert(tag);
  pending_.erase(it);
  return outcome;
}

std::vector<Outcome> Oracle::expire(std::int64_t nowNs,
                                    std::int64_t timeoutNs) {
  std::vector<Outcome> out;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (nowNs - it->second.spec.sentNs <= timeoutNs) {
      ++it;
      continue;
    }
    auto victim = it++;
    out.push_back(fail(victim, victim->second.gotFlowMod
                                   ? Failure::kMissingPacketOut
                                   : Failure::kTimeout));
  }
  return out;
}

}  // namespace perfbench
