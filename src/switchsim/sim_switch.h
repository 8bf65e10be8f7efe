// A simulated OpenFlow 1.0-style switch: flow table, packet pipeline, port
// counters, packet-in punting — the southbound substrate for the end-to-end
// experiments (the paper used hardware switches emulated by CBench).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "controller/controller.h"
#include "of/flow_table.h"
#include "of/messages.h"
#include "of/packet.h"

namespace sdnshield::sim {

class SimSwitch final : public ctrl::SwitchConn {
 public:
  SimSwitch(of::DatapathId dpid, std::size_t tableCapacity = 65536)
      : dpid_(dpid), table_(tableCapacity) {}
  ~SimSwitch() override { shutdownControlChannel(); }

  SimSwitch(const SimSwitch&) = delete;
  SimSwitch& operator=(const SimSwitch&) = delete;

  // --- wiring ---------------------------------------------------------------
  void setController(ctrl::Controller* controller) { controller_ = controller; }

  /// Overrides where punted packet-ins go (instead of the controller) —
  /// used by switch agents that frame the control channel onto a socket.
  using PacketInSink = std::function<void(const of::PacketIn&)>;
  void setPacketInSink(PacketInSink sink) { packetInSink_ = std::move(sink); }

  /// Emulates the switch<->controller control-channel latency of a real
  /// testbed (the paper measures over a physical network where this is the
  /// dominant term). Modelled as pipelined propagation delay: control
  /// messages (punts, flow-mods, packet-outs) take effect @p delay after
  /// being sent, without blocking the sender. Zero (default) = no channel.
  void setControlChannelDelay(std::chrono::microseconds delay);

  /// Stops the control-channel worker (must be called before the controller
  /// is destroyed when a delay was configured; SimNetwork does this).
  void shutdownControlChannel();

  /// Switch-local rule expiry (e.g. idle timeout): applies directly to the
  /// table, bypassing the control channel.
  void expireFlows(const of::FlowMatch& match);

  /// Advances the switch's virtual clock: entries whose idle/hard timeout
  /// elapses are removed and announced to the controller as FlowRemoved.
  void advanceTime(std::uint32_t seconds);

  /// Connects a port to a peer (the far end of a link, or a host NIC).
  using PacketSink = std::function<void(const of::Packet&)>;
  void connectPort(of::PortNo port, PacketSink sink);

  // --- data plane -------------------------------------------------------------
  /// A packet arrives on a port: table lookup, action execution; a miss is
  /// punted to the controller as a packet-in.
  void receivePacket(of::PortNo inPort, const of::Packet& packet);

  // --- ctrl::SwitchConn ---------------------------------------------------------
  // (dpid() is SimSwitch state, not interface: datapath identity reaches
  // the controller through the ConnectionInfo passed to attachSwitch.)
  of::DatapathId dpid() const { return dpid_; }
  ctrl::ApiResult applyFlowMod(const of::FlowMod& mod) override;
  /// Batched flow-mods: one table-lock acquisition, sorted-merge insertion
  /// (FlowTable::applyBatch) instead of per-mod lock+scan+insert.
  std::vector<ctrl::ApiResult> applyFlowMods(
      const std::vector<of::FlowMod>& mods) override;
  ctrl::ApiResult transmitPacket(const of::PacketOut& packetOut) override;
  ctrl::ApiResponse<std::vector<of::FlowEntry>> dumpFlows() const override;
  ctrl::ApiResponse<of::StatsReply> queryStats(
      const of::StatsRequest& request) const override;

  /// queryStats without the ApiResponse wrapper (an in-process switch
  /// cannot fail a local table read) — convenience for tests and tools.
  of::StatsReply localStats(const of::StatsRequest& request) const;

  std::size_t flowCount() const;
  std::uint64_t packetInCount() const { return packetIns_; }
  std::uint64_t flowModCount() const { return flowMods_; }

 private:
  void executeActions(const of::ActionList& actions, of::PortNo inPort,
                      of::Packet packet);
  void deliver(of::PortNo outPort, of::PortNo inPort, const of::Packet& packet);

  void punt(const of::PacketIn& packetIn);

  of::DatapathId dpid_;
  ctrl::Controller* controller_ = nullptr;
  PacketInSink packetInSink_;
  mutable std::mutex mutex_;  // Guards table and counters, never delivery.
  of::FlowTable table_;
  std::map<of::PortNo, PacketSink> ports_;
  std::map<of::PortNo, of::PortStats> portStats_;
  std::uint64_t packetIns_ = 0;
  std::uint64_t flowMods_ = 0;

  // Control-channel emulation: a FIFO of (due time, action) applied by a
  // worker thread at each message's own deadline (propagation, not service,
  // delay — messages pipeline).
  struct ChannelMessage {
    std::chrono::steady_clock::time_point due;
    std::function<void()> apply;
  };
  void channelSend(std::function<void()> apply);
  void channelRun();

  std::chrono::microseconds controlDelay_{0};
  std::mutex channelMutex_;
  std::condition_variable channelCv_;
  std::deque<ChannelMessage> channelQueue_;
  std::thread channelWorker_;
  bool channelStop_ = false;
};

}  // namespace sdnshield::sim
