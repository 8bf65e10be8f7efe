// The TCP southbound (net::TcpSwitchConn behind net::OfServer) against an
// emulated OF 1.0 switch on the far side of a loopback connection: the L2
// scenario, flow-mod round trips, the xid-keyed stats RPC, codec rejections
// and a peer that goes away — every controller<->switch message is a real
// frame on a real socket.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>

#include "apps/l2_learning.h"
#include "controller/controller.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "net/of_server.h"
#include "of/wire.h"
#include "switchsim/sim_network.h"

namespace sdnshield {
namespace {

namespace wire = of::wire;
using namespace std::chrono_literals;

/// A SimSwitch whose control channel is a blocking loopback socket. The
/// reader thread answers the handshake and echo requests, applies flow-mods
/// and packet-outs to the switch, and answers stats requests from the
/// switch's own table and counters under the request's xid. Punts leave as
/// packet-in frames.
class TcpSwitchAgent {
 public:
  TcpSwitchAgent(std::uint16_t port, std::shared_ptr<sim::SimSwitch> sw)
      : sw_(std::move(sw)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    sw_->setPacketInSink([this](const of::PacketIn& packetIn) {
      send(wire::encodePacketIn(packetIn));
    });
    send(wire::encodeHello());
    reader_ = std::thread([this] { run(); });
  }
  ~TcpSwitchAgent() {
    close();
    reader_.join();
    sw_->setPacketInSink({});
    if (fd_ >= 0) ::close(fd_);
  }
  TcpSwitchAgent(const TcpSwitchAgent&) = delete;
  TcpSwitchAgent& operator=(const TcpSwitchAgent&) = delete;

  bool connected() const { return connected_; }
  /// A frame from the server that did not decode (the reader stopped).
  bool sawMalformedFrame() const { return malformed_.load(); }
  /// The switch going away: both directions shut, the reader exits.
  void close() { ::shutdown(fd_, SHUT_RDWR); }

  std::uint64_t flowModsReceived() const { return flowMods_.load(); }
  std::uint64_t bytesToSwitch() const { return bytesIn_.load(); }
  std::uint64_t bytesFromSwitch() const { return bytesOut_.load(); }

 private:
  void send(const of::Bytes& frame) {
    std::lock_guard lock(sendMutex_);
    std::size_t offset = 0;
    while (offset < frame.size()) {
      ssize_t n = ::send(fd_, frame.data() + offset, frame.size() - offset,
                         MSG_NOSIGNAL);
      if (n <= 0) return;  // Closed: the frame is lost, as on a real link.
      offset += static_cast<std::size_t>(n);
    }
    bytesOut_.fetch_add(frame.size());
  }

  void run() {
    of::Bytes buffer;
    std::uint8_t chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      bytesIn_.fetch_add(static_cast<std::uint64_t>(n));
      buffer.insert(buffer.end(), chunk, chunk + n);
      try {
        while (std::size_t length = wire::frameLength(buffer)) {
          handle(wire::decode(buffer.data(), length),
                 wire::transactionId(buffer.data(), length));
          buffer.erase(buffer.begin(),
                       buffer.begin() + static_cast<std::ptrdiff_t>(length));
        }
      } catch (const wire::DecodeError&) {
        malformed_.store(true);
        return;
      }
    }
  }

  void handle(wire::Message message, std::uint32_t xid) {
    if (std::holds_alternative<wire::FeaturesRequest>(message)) {
      wire::FeaturesReply reply;
      reply.xid = xid;
      reply.dpid = sw_->dpid();
      send(wire::encodeFeaturesReply(reply));
    } else if (auto* echo = std::get_if<wire::Echo>(&message)) {
      if (!echo->isReply) send(wire::encodeEcho({true, xid, echo->payload}));
    } else if (auto* mod = std::get_if<of::FlowMod>(&message)) {
      flowMods_.fetch_add(1);
      sw_->applyFlowMod(*mod);
    } else if (auto* packetOut = std::get_if<of::PacketOut>(&message)) {
      sw_->transmitPacket(*packetOut);
    } else if (auto* request = std::get_if<of::StatsRequest>(&message)) {
      request->dpid = sw_->dpid();
      send(wire::encodeStatsReply(sw_->localStats(*request), xid));
    }
  }

  std::shared_ptr<sim::SimSwitch> sw_;
  int fd_ = -1;
  bool connected_ = false;
  std::mutex sendMutex_;
  std::atomic<std::uint64_t> flowMods_{0};
  std::atomic<std::uint64_t> bytesIn_{0};
  std::atomic<std::uint64_t> bytesOut_{0};
  std::atomic<bool> malformed_{false};
  std::thread reader_;  ///< Last: it uses every member above.
};

bool waitUntil(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// One switch (dpid 1) with hosts on ports 1 and 2, attached to the
/// controller over loopback TCP.
struct TcpBed {
  TcpBed() {
    sw = std::make_shared<sim::SimSwitch>(1);
    h1 = std::make_shared<sim::SimHost>(
        net::Host{of::MacAddress::fromUint64(1), of::Ipv4Address(10, 0, 0, 1),
                  1, 1},
        sw);
    sw->connectPort(1, [this](const of::Packet& p) { h1->onDelivered(p); });
    h2 = std::make_shared<sim::SimHost>(
        net::Host{of::MacAddress::fromUint64(2), of::Ipv4Address(10, 0, 0, 2),
                  1, 2},
        sw);
    sw->connectPort(2, [this](const of::Packet& p) { h2->onDelivered(p); });
    std::string error;
    if (!server.start(&error)) return;
    agent = std::make_unique<TcpSwitchAgent>(server.port(), sw);
    ready = agent->connected() && server.waitForSwitches(1, 5s);
    if (!ready) return;
    controller.learnHost(h1->descriptor());
    controller.learnHost(h2->descriptor());
  }
  ~TcpBed() {
    if (agent) {
      EXPECT_FALSE(agent->sawMalformedFrame());
    }
    agent.reset();
    server.stop();
  }

  ctrl::Controller controller;
  net::OfServer server{controller};
  std::shared_ptr<sim::SimSwitch> sw;
  std::shared_ptr<sim::SimHost> h1, h2;
  std::unique_ptr<TcpSwitchAgent> agent;
  bool ready = false;
};

of::Packet tcp(const sim::SimHost& src, const sim::SimHost& dst) {
  return of::Packet::makeTcp(src.mac(), dst.mac(), src.ip(), dst.ip(), 40000,
                             80, of::tcpflags::kSyn);
}

TEST(WireConn, L2ScenarioRunsThroughTheCodec) {
  TcpBed bed;
  ASSERT_TRUE(bed.ready);
  iso::BaselineRuntime runtime(bed.controller);
  auto app = std::make_shared<apps::L2LearningSwitch>();
  runtime.loadApp(app);

  bed.h1->send(tcp(*bed.h1, *bed.h2));  // Flood (unknown destination).
  ASSERT_TRUE(bed.h2->waitForPackets(1, 5000ms));
  bed.h2->send(tcp(*bed.h2, *bed.h1));  // Learned: rule + packet-out.
  ASSERT_TRUE(bed.h1->waitForPackets(1, 5000ms));
  EXPECT_TRUE(waitUntil([&] { return bed.sw->flowCount() == 1; }));
  EXPECT_EQ(app->rulesInstalled(), 1u);

  // Every exchanged message was actually framed.
  EXPECT_GT(bed.agent->bytesFromSwitch(), 0u);  // Packet-ins.
  EXPECT_GT(bed.agent->bytesToSwitch(), 0u);    // Flow-mod + packet-outs.
  EXPECT_EQ(bed.server.framingErrors(), 0u);
}

TEST(WireConn, InstalledRuleSurvivesTheFlowModRoundTrip) {
  TcpBed bed;
  ASSERT_TRUE(bed.ready);
  of::FlowMod mod;
  mod.match.ethType = 0x0800;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 2),
                                   of::Ipv4Address::prefixMask(24)};
  mod.priority = 33;
  mod.idleTimeout = 60;
  mod.actions.push_back(of::OutputAction{2});
  ASSERT_TRUE(bed.controller.kernelInsertFlow(7, 1, mod).ok());
  ASSERT_TRUE(waitUntil([&] { return bed.sw->flowCount() == 1; }));
  auto flows = bed.sw->dumpFlows().value();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].match, mod.match);
  EXPECT_EQ(flows[0].priority, 33);
  EXPECT_EQ(flows[0].idleTimeout, 60u);
  EXPECT_EQ(flows[0].cookie, 7u);  // Cookie (issuer) survives framing.
}

TEST(WireConn, StatsTakeTheWireRoundTripBothWays) {
  TcpBed bed;
  ASSERT_TRUE(bed.ready);
  of::FlowMod mod;
  mod.match.tpDst = 80;
  mod.priority = 5;
  mod.actions.push_back(of::OutputAction{2});
  ASSERT_TRUE(bed.controller.kernelInsertFlow(7, 1, mod).ok());
  ASSERT_TRUE(waitUntil([&] { return bed.sw->flowCount() == 1; }));
  bed.h1->send(of::Packet::makeTcp(bed.h1->mac(), bed.h2->mac(), bed.h1->ip(),
                                   bed.h2->ip(), 1, 80, of::tcpflags::kSyn));
  EXPECT_EQ(bed.h2->receivedCount(), 1u);  // Matched in the switch.

  // Flow level: the reply rides back under the request's xid.
  of::StatsRequest request;
  request.level = of::StatsLevel::kFlow;
  request.dpid = 1;
  auto response = bed.controller.kernelReadStatistics(request);
  ASSERT_TRUE(response.ok()) << response.error().toString();
  ASSERT_EQ(response.value().flows.size(), 1u);
  EXPECT_EQ(response.value().flows[0].packetCount, 1u);
  EXPECT_EQ(response.value().flows[0].cookie, 7u);

  // Switch level: datapath identity comes from the connection.
  request.level = of::StatsLevel::kSwitch;
  response = bed.controller.kernelReadStatistics(request);
  ASSERT_TRUE(response.ok()) << response.error().toString();
  EXPECT_EQ(response.value().switchStats.activeFlows, 1u);
  EXPECT_EQ(response.value().switchStats.dpid, 1u);
}

TEST(WireConn, NonPrefixMaskRuleIsRejectedAtTheWire) {
  TcpBed bed;
  ASSERT_TRUE(bed.ready);
  of::FlowMod mod;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 0),
                                   of::Ipv4Address::parse("255.0.255.0")};
  mod.actions.push_back(of::OutputAction{2});
  // OF 1.0 cannot express the mask: a typed kFramingError, never an
  // exception and never a silently widened rule.
  ctrl::ApiResult result = bed.controller.kernelInsertFlow(7, 1, mod);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ctrl::ApiErrc::kFramingError);

  // A stats round trip behind it on the same stream: had a flow-mod frame
  // been sent, the switch would have read it before the request.
  of::StatsRequest request;
  request.level = of::StatsLevel::kSwitch;
  request.dpid = 1;
  ASSERT_TRUE(bed.controller.kernelReadStatistics(request).ok());
  EXPECT_EQ(bed.agent->flowModsReceived(), 0u);
  EXPECT_TRUE(bed.sw->dumpFlows().value().empty());
}

TEST(WireConn, StatsQueryAfterPeerCloseIsConnClosed) {
  TcpBed bed;
  ASSERT_TRUE(bed.ready);
  auto conn = std::dynamic_pointer_cast<net::TcpSwitchConn>(
      bed.controller.switchConn(1));
  ASSERT_NE(conn, nullptr);
  bed.agent->close();
  ASSERT_TRUE(waitUntil([&] { return conn->closed(); }));

  // The switch stays registered; its connection answers with a typed
  // failure instead of waiting out the RPC timeout.
  of::StatsRequest request;
  request.level = of::StatsLevel::kFlow;
  request.dpid = 1;
  auto response = bed.controller.kernelReadStatistics(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, ctrl::ApiErrc::kConnClosed);
}

TEST(WireConn, ShieldedDeploymentWorksOverTheWire) {
  TcpBed bed;
  ASSERT_TRUE(bed.ready);
  iso::ShieldRuntime shield(bed.controller);
  auto app = std::make_shared<apps::L2LearningSwitch>();
  shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));
  bed.h1->send(tcp(*bed.h1, *bed.h2));
  ASSERT_TRUE(bed.h2->waitForPackets(1, 5000ms));
  bed.h2->send(tcp(*bed.h2, *bed.h1));
  ASSERT_TRUE(bed.h1->waitForPackets(1, 5000ms));
  EXPECT_TRUE(waitUntil([&] { return app->rulesInstalled() == 1; }));
  shield.shutdown();
}

}  // namespace
}  // namespace sdnshield
