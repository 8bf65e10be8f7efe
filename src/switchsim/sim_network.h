// Network harness: builds simulated topologies (switches, links, hosts),
// wires them to a controller, and provides observable host endpoints — the
// testbed for the effectiveness and end-to-end experiments.
#pragma once

#include <condition_variable>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "controller/controller.h"
#include "switchsim/sim_switch.h"

namespace sdnshield::sim {

/// A host endpoint: records everything delivered to it (so tests can check
/// e.g. "did the RST reach the victim?") and injects packets into its
/// switch port.
class SimHost {
 public:
  SimHost(net::Host descriptor, std::shared_ptr<SimSwitch> edge)
      : descriptor_(descriptor), edge_(std::move(edge)) {}

  const net::Host& descriptor() const { return descriptor_; }
  of::MacAddress mac() const { return descriptor_.mac; }
  of::Ipv4Address ip() const { return descriptor_.ip; }

  /// Injects a packet at the host's switch port.
  void send(const of::Packet& packet);

  /// Called by the switch port wiring when a packet is delivered here.
  void onDelivered(const of::Packet& packet);

  std::vector<of::Packet> received() const;
  std::size_t receivedCount() const;

  /// Blocks until at least @p n packets have been delivered (or timeout).
  bool waitForPackets(std::size_t n, std::chrono::milliseconds timeout) const;

  void clearReceived();

 private:
  net::Host descriptor_;
  std::shared_ptr<SimSwitch> edge_;
  mutable std::mutex mutex_;
  mutable std::condition_variable delivered_;
  std::vector<of::Packet> received_;
};

class SimNetwork {
 public:
  explicit SimNetwork(ctrl::Controller& controller)
      : controller_(controller) {}

  /// Stops any control-channel workers before the controller (declared
  /// before the network in the usual stack order) is torn down.
  ~SimNetwork() {
    for (auto& [_, sw] : switches_) sw->shutdownControlChannel();
  }

  /// Adds a switch and registers it with the controller through the
  /// canonical Controller::attachSwitch(conn, ConnectionInfo) entry point
  /// (transport "sim"). Direct wiring — handing the controller a connection
  /// without a ConnectionInfo — is deprecated; every transport registers
  /// through that one seam.
  std::shared_ptr<SimSwitch> addSwitch(of::DatapathId dpid);

  /// Wires a bidirectional link and registers it in the controller topology.
  void link(of::DatapathId a, of::PortNo aPort, of::DatapathId b,
            of::PortNo bPort);

  /// Attaches a host at (dpid, port); the controller learns its location.
  std::shared_ptr<SimHost> addHost(of::DatapathId dpid, of::PortNo port,
                                   of::MacAddress mac, of::Ipv4Address ip);

  std::shared_ptr<SimSwitch> switchAt(of::DatapathId dpid) const;
  std::shared_ptr<SimHost> hostByIp(of::Ipv4Address ip) const;
  const std::vector<std::shared_ptr<SimHost>>& hosts() const { return hosts_; }
  std::vector<std::shared_ptr<SimSwitch>> switches() const;

  // --- canned topologies ------------------------------------------------------
  /// Chain s1-s2-...-sN with one host per switch (10.0.0.k at switch k,
  /// host port 1; inter-switch ports 2 and 3).
  void buildLinear(std::size_t switchCount);

  /// Complete binary-ish tree of the given fanout and depth; hosts at
  /// leaves.
  void buildTree(std::size_t depth, std::size_t fanout);

 private:
  ctrl::Controller& controller_;
  std::map<of::DatapathId, std::shared_ptr<SimSwitch>> switches_;
  std::vector<std::shared_ptr<SimHost>> hosts_;
};

}  // namespace sdnshield::sim
