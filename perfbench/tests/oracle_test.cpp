// Answer-oracle self-test: hand-made answer frames, each mistake the serve
// stack could make on the wire must fail the operation exactly once.
// Frames go through the real OF 1.0 codec, as the load generator reads them.
//
//   perfbench_oracle_test   (exit 0 = every case passed)
#include <cstdio>
#include <string>

#include "of/packet.h"
#include "of/wire.h"
#include "oracle.h"

namespace {

namespace of = sdnshield::of;
namespace wire = sdnshield::of::wire;
using perfbench::Failure;
using perfbench::Oracle;
using perfbench::Outcome;
using perfbench::ProbeSpec;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

const of::MacAddress kSource = of::MacAddress::fromUint64(0x02000000aa01ULL);
const of::MacAddress kHost = of::MacAddress::fromUint64(0x02000000bb02ULL);
const of::MacAddress kUnknown = of::MacAddress::fromUint64(0x02000000cc03ULL);
constexpr of::PortNo kInPort = 50;
constexpr of::PortNo kHostPort = 7;

ProbeSpec probe(std::uint32_t tag, bool announced, std::int64_t sentNs) {
  ProbeSpec spec;
  spec.tag = tag;
  spec.announced = announced;
  spec.dst = announced ? kHost : kUnknown;
  spec.outPort = kHostPort;
  spec.inPort = kInPort;
  spec.packet = of::Packet::makeTcp(kSource, spec.dst,
                                    of::Ipv4Address(10, 0, 0, 1),
                                    of::Ipv4Address(10, 0, 0, 2), 4000, 80,
                                    of::tcpflags::kSyn);
  spec.packet.tcp->seq = tag;
  spec.sentNs = sentNs;
  return spec;
}

/// The flow-mod the L2 app sends for a probe to @p dst on @p port, after a
/// round trip through the wire codec.
of::FlowMod flowMod(of::MacAddress dst, of::PortNo port) {
  of::FlowMod mod;
  mod.command = of::FlowModCommand::kAdd;
  mod.match.ethDst = dst;
  mod.priority = perfbench::kL2RulePriority;
  mod.idleTimeout = 300;
  mod.actions.push_back(of::OutputAction{port});
  return std::get<of::FlowMod>(wire::decode(wire::encodeFlowMod(mod)));
}

of::PacketOut packetOut(const ProbeSpec& spec, of::PortNo port) {
  of::PacketOut out;
  out.inPort = spec.inPort;
  out.packet = spec.packet;
  out.actions.push_back(of::OutputAction{port});
  return std::get<of::PacketOut>(wire::decode(wire::encodePacketOut(out)));
}

void announcedAnswerIsCorrect() {
  Oracle oracle;
  ProbeSpec spec = probe(1, true, 1000);
  oracle.expect(spec);
  Outcome fm = oracle.onFlowMod(flowMod(kHost, kHostPort), 1500);
  CHECK(fm.kind == Outcome::Kind::kProgress);
  Outcome po = oracle.onPacketOut(packetOut(spec, kHostPort), 1700);
  CHECK(po.kind == Outcome::Kind::kAnswered);
  CHECK(po.latencyNs == 500);  // Send to flow-mod read.
  CHECK(!po.countsAsFailure());
  CHECK(oracle.open() == 0);
}

void floodAnswerIsCorrect() {
  Oracle oracle;
  ProbeSpec spec = probe(2, false, 1000);
  oracle.expect(spec);
  Outcome po = oracle.onPacketOut(packetOut(spec, of::ports::kFlood), 1900);
  CHECK(po.kind == Outcome::Kind::kAnswered);
  CHECK(po.latencyNs == 900);
}

void wrongPortFails() {
  Oracle oracle;
  ProbeSpec spec = probe(3, true, 0);
  oracle.expect(spec);
  Outcome fm = oracle.onFlowMod(flowMod(kHost, kHostPort + 1), 10);
  CHECK(fm.kind == Outcome::Kind::kFailed);
  CHECK(fm.failure == Failure::kWrongFlowMod);
  // Its packet-out then belongs to a failed probe: late, not a 2nd failure.
  Outcome po = oracle.onPacketOut(packetOut(spec, kHostPort), 20);
  CHECK(po.kind == Outcome::Kind::kStray && po.failure == Failure::kLate);
  CHECK(!po.countsAsFailure());

  Oracle other;
  ProbeSpec spec2 = probe(4, true, 0);
  other.expect(spec2);
  other.onFlowMod(flowMod(kHost, kHostPort), 10);
  Outcome wrongOut = other.onPacketOut(packetOut(spec2, kHostPort + 2), 20);
  CHECK(wrongOut.kind == Outcome::Kind::kFailed);
  CHECK(wrongOut.failure == Failure::kWrongPacketOut);
}

void missingPacketOutFails() {
  Oracle oracle;
  oracle.expect(probe(5, true, 0));
  oracle.onFlowMod(flowMod(kHost, kHostPort), 10);
  auto expired = oracle.expire(1'000, 500);
  CHECK(expired.size() == 1);
  CHECK(expired[0].kind == Outcome::Kind::kFailed);
  CHECK(expired[0].failure == Failure::kMissingPacketOut);

  Oracle noFlowMod;
  ProbeSpec spec = probe(6, true, 0);
  noFlowMod.expect(spec);
  Outcome po = noFlowMod.onPacketOut(packetOut(spec, kHostPort), 10);
  CHECK(po.kind == Outcome::Kind::kFailed);
  CHECK(po.failure == Failure::kMissingFlowMod);
}

void flowModForUnannouncedHostFails() {
  Oracle oracle;
  ProbeSpec spec = probe(7, false, 0);
  oracle.expect(spec);
  Outcome fm = oracle.onFlowMod(flowMod(kUnknown, kHostPort), 10);
  CHECK(fm.kind == Outcome::Kind::kFailed);
  CHECK(fm.failure == Failure::kFlowModForFlood);
  CHECK(fm.countsAsFailure());
}

void duplicateFails() {
  Oracle oracle;
  ProbeSpec spec = probe(8, true, 0);
  oracle.expect(spec);
  oracle.onFlowMod(flowMod(kHost, kHostPort), 10);
  CHECK(oracle.onPacketOut(packetOut(spec, kHostPort), 20).kind ==
        Outcome::Kind::kAnswered);
  Outcome again = oracle.onPacketOut(packetOut(spec, kHostPort), 30);
  CHECK(again.kind == Outcome::Kind::kStray);
  CHECK(again.failure == Failure::kDuplicate);
  CHECK(again.countsAsFailure());
  Outcome fmAgain = oracle.onFlowMod(flowMod(kHost, kHostPort), 40);
  CHECK(fmAgain.kind == Outcome::Kind::kStray);
  CHECK(fmAgain.countsAsFailure());
}

void lateAnswerAfterTimeoutFails() {
  Oracle oracle;
  ProbeSpec spec = probe(9, true, 0);
  oracle.expect(spec);
  auto expired = oracle.expire(2'000, 1'000);
  CHECK(expired.size() == 1);
  CHECK(expired[0].failure == Failure::kTimeout);
  CHECK(expired[0].countsAsFailure());
  // The answer arrives after the deadline: recorded as late, never as an
  // answer with a too-short latency, and not a second failure.
  Outcome fm = oracle.onFlowMod(flowMod(kHost, kHostPort), 2'500);
  CHECK(fm.kind == Outcome::Kind::kStray && fm.failure == Failure::kLate);
  Outcome po = oracle.onPacketOut(packetOut(spec, kHostPort), 2'600);
  CHECK(po.kind == Outcome::Kind::kStray && po.failure == Failure::kLate);
  CHECK(!fm.countsAsFailure() && !po.countsAsFailure());

  // A late flow-mod must not be credited to the next probe to that host,
  // even when that probe is already open.
  Oracle reordered;
  reordered.expect(probe(10, true, 0));
  reordered.expire(2'000, 1'000);
  ProbeSpec next = probe(11, true, 3'000);
  reordered.expect(next);
  Outcome lateFm = reordered.onFlowMod(flowMod(kHost, kHostPort), 3'100);
  CHECK(lateFm.failure == Failure::kLate);
  CHECK(reordered.onFlowMod(flowMod(kHost, kHostPort), 3'200).kind ==
        Outcome::Kind::kProgress);
  Outcome answered = reordered.onPacketOut(packetOut(next, kHostPort), 3'300);
  CHECK(answered.kind == Outcome::Kind::kAnswered);
  CHECK(answered.latencyNs == 200);
}

void strayPacketOutFails() {
  Oracle oracle;
  ProbeSpec spec = probe(12, true, 0);
  Outcome po = oracle.onPacketOut(packetOut(spec, kHostPort), 10);
  CHECK(po.kind == Outcome::Kind::kStray && po.failure == Failure::kStray);
  CHECK(po.countsAsFailure());
}

}  // namespace

int main() {
  announcedAnswerIsCorrect();
  floodAnswerIsCorrect();
  wrongPortFails();
  missingPacketOutFails();
  flowModForUnannouncedHostFails();
  duplicateFails();
  lateAnswerAfterTimeoutFails();
  strayPacketOutFails();
  if (g_failures != 0) {
    std::fprintf(stderr, "oracle_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("oracle_test: all checks passed\n");
  return 0;
}
