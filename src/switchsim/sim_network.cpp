#include "switchsim/sim_network.h"

#include <stdexcept>

namespace sdnshield::sim {

void SimHost::send(const of::Packet& packet) {
  edge_->receivePacket(descriptor_.port, packet);
}

void SimHost::onDelivered(const of::Packet& packet) {
  {
    std::lock_guard lock(mutex_);
    received_.push_back(packet);
  }
  delivered_.notify_all();
}

std::vector<of::Packet> SimHost::received() const {
  std::lock_guard lock(mutex_);
  return received_;
}

std::size_t SimHost::receivedCount() const {
  std::lock_guard lock(mutex_);
  return received_.size();
}

bool SimHost::waitForPackets(std::size_t n,
                             std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mutex_);
  return delivered_.wait_for(lock, timeout,
                             [&] { return received_.size() >= n; });
}

void SimHost::clearReceived() {
  std::lock_guard lock(mutex_);
  received_.clear();
}

std::shared_ptr<SimSwitch> SimNetwork::addSwitch(of::DatapathId dpid) {
  auto sw = std::make_shared<SimSwitch>(dpid);
  sw->setController(&controller_);
  switches_[dpid] = sw;
  controller_.attachSwitch(
      sw, ctrl::ConnectionInfo{dpid, "sim", "in-process", 0});
  return sw;
}

void SimNetwork::link(of::DatapathId a, of::PortNo aPort, of::DatapathId b,
                      of::PortNo bPort) {
  auto swA = switchAt(a);
  auto swB = switchAt(b);
  if (!swA || !swB) throw std::invalid_argument("link: unknown switch");
  swA->connectPort(aPort, [swB, bPort](const of::Packet& packet) {
    swB->receivePacket(bPort, packet);
  });
  swB->connectPort(bPort, [swA, aPort](const of::Packet& packet) {
    swA->receivePacket(aPort, packet);
  });
  controller_.addLink(a, aPort, b, bPort);
}

std::shared_ptr<SimHost> SimNetwork::addHost(of::DatapathId dpid,
                                             of::PortNo port,
                                             of::MacAddress mac,
                                             of::Ipv4Address ip) {
  auto edge = switchAt(dpid);
  if (!edge) throw std::invalid_argument("addHost: unknown switch");
  net::Host descriptor{mac, ip, dpid, port};
  auto host = std::make_shared<SimHost>(descriptor, edge);
  edge->connectPort(port, [host](const of::Packet& packet) {
    host->onDelivered(packet);
  });
  hosts_.push_back(host);
  controller_.learnHost(descriptor);
  return host;
}

std::shared_ptr<SimSwitch> SimNetwork::switchAt(of::DatapathId dpid) const {
  auto it = switches_.find(dpid);
  return it == switches_.end() ? nullptr : it->second;
}

std::shared_ptr<SimHost> SimNetwork::hostByIp(of::Ipv4Address ip) const {
  for (const auto& host : hosts_) {
    if (host->ip() == ip) return host;
  }
  return nullptr;
}

std::vector<std::shared_ptr<SimSwitch>> SimNetwork::switches() const {
  std::vector<std::shared_ptr<SimSwitch>> out;
  out.reserve(switches_.size());
  for (const auto& [_, sw] : switches_) out.push_back(sw);
  return out;
}

void SimNetwork::buildLinear(std::size_t switchCount) {
  for (std::size_t i = 1; i <= switchCount; ++i) addSwitch(i);
  for (std::size_t i = 1; i < switchCount; ++i) {
    // Port 2 faces the next switch; port 3 faces the previous one.
    link(i, 2, i + 1, 3);
  }
  for (std::size_t i = 1; i <= switchCount; ++i) {
    addHost(i, 1, of::MacAddress::fromUint64(0x0200000000ULL + i),
            of::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)));
  }
}

void SimNetwork::buildTree(std::size_t depth, std::size_t fanout) {
  // Breadth-first numbering from dpid 1; parent port p+10 connects child's
  // port 3; hosts on port 1 of every leaf.
  of::DatapathId next = 1;
  std::vector<of::DatapathId> frontier{next};
  addSwitch(next++);
  for (std::size_t level = 1; level < depth; ++level) {
    std::vector<of::DatapathId> children;
    for (of::DatapathId parent : frontier) {
      for (std::size_t k = 0; k < fanout; ++k) {
        of::DatapathId child = next++;
        addSwitch(child);
        link(parent, static_cast<of::PortNo>(10 + k), child, 3);
        children.push_back(child);
      }
    }
    frontier = std::move(children);
  }
  std::uint8_t hostIndex = 1;
  for (of::DatapathId leaf : frontier) {
    addHost(leaf, 1, of::MacAddress::fromUint64(0x0300000000ULL + hostIndex),
            of::Ipv4Address(10, 0, 1, hostIndex));
    ++hostIndex;
  }
}

}  // namespace sdnshield::sim
