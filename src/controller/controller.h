// The controller kernel: owns the southbound switch connections, the
// topology database, the ownership tracker and the audit log; dispatches
// events; and exposes *unchecked* kernel operations. Permission mediation is
// layered on top — DirectApi (baseline) calls straight in, the isolation
// module's Kernel Service Deputies check first (paper Figure 4).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "controller/api.h"
#include "controller/event.h"
#include "core/engine/audit.h"
#include "core/engine/ownership.h"
#include "net/topology.h"

namespace sdnshield::ctrl {

/// Southbound connection to one switch: the narrow *datapath* interface.
/// Identity and transport metadata live in ConnectionInfo, supplied to
/// Controller::attachSwitch at registration time — the kernel, supervisor
/// and obs instrumentation never care whether the far end is an in-process
/// SimSwitch or a real TCP peer behind the epoll reactor.
///
/// Every send is typed: failures carry an ApiErrc (kTableFull from the
/// switch, kConnClosed when the peer is gone, kFramingError when the wire
/// codec rejects the message) so callers branch on code(), never on
/// exceptions or bare bools.
class SwitchConn {
 public:
  virtual ~SwitchConn() = default;

  virtual ApiResult applyFlowMod(const of::FlowMod& mod) = 0;
  /// Applies a batch of flow mods; element i of the result is the outcome of
  /// mods[i]. Semantically equivalent to applying each mod in order — the
  /// default does exactly that; implementations may override to take their
  /// table lock once and merge sorted runs (SimSwitch does).
  virtual std::vector<ApiResult> applyFlowMods(
      const std::vector<of::FlowMod>& mods) {
    std::vector<ApiResult> out;
    out.reserve(mods.size());
    for (const of::FlowMod& mod : mods) out.push_back(applyFlowMod(mod));
    return out;
  }
  virtual ApiResult transmitPacket(const of::PacketOut& packetOut) = 0;
  virtual ApiResponse<std::vector<of::FlowEntry>> dumpFlows() const = 0;
  virtual ApiResponse<of::StatsReply> queryStats(
      const of::StatsRequest& request) const = 0;
};

/// Registration-time descriptor for a southbound connection: who the peer
/// is and how it is reached. The dpid is carried here (not on SwitchConn)
/// exactly as in real OpenFlow, where datapath identity is learned from the
/// features handshake, not from the socket.
struct ConnectionInfo {
  of::DatapathId dpid = 0;
  /// Transport tag: "sim" (in-process), "wire" (codec-interposed
  /// in-process), "tcp" (epoll reactor frontend).
  std::string transport = "sim";
  /// Human-readable peer description ("in-process", "127.0.0.1:49152").
  std::string peer = "in-process";
  /// Negotiated OF wire version; 0 for in-process transports that skip the
  /// hello exchange.
  std::uint8_t ofVersion = 0;
};

/// Seam for the sharding subsystem (src/shard, DESIGN.md §16). When a
/// dispatch is attached, packet-in delivery hops to the event loop owning
/// the punting switch, and app quarantine fences every shard loop.
/// Implemented by shard::ShardRuntime; the controller only sees this narrow
/// interface so the dependency points shard -> controller, never back. With
/// no dispatch attached (the default), every path below is a single relaxed
/// load and the controller behaves exactly as the pre-shard single
/// pipeline.
class ShardDispatch {
 public:
  virtual ~ShardDispatch() = default;

  virtual std::size_t shardCount() const = 0;
  /// Home shard of a switch (deterministic; see shard::Router).
  virtual std::size_t shardOf(of::DatapathId dpid) const = 0;
  /// Runs @p fn to completion on the given shard's event loop (inline when
  /// the caller already is that loop). Exceptions propagate to the caller.
  virtual void runOnShard(std::size_t shard,
                          const std::function<void()>& fn) = 0;
  /// Barrier: a task runs on every shard loop and the caller waits for all
  /// of them. Returns false (and does nothing) when called from a shard
  /// loop itself, where blocking on sibling loops could deadlock.
  virtual bool fenceShards() = 0;
};

class Controller {
 public:
  using EventSink = std::function<void(const Event&)>;

  // --- southbound / topology learning -------------------------------------
  /// The single registration entry point for every transport: SimNetwork's
  /// in-process switches and the epoll frontend's TcpSwitchConn both land
  /// here. (The old attachSwitch(conn) overload that pulled the dpid out of
  /// the connection is gone — identity is descriptor state, not datapath
  /// interface.) A re-attach for a live dpid replaces the previous
  /// connection (reconnect semantics). Fails with kInvalidArgument on a null
  /// conn or a zero dpid.
  ApiResult attachSwitch(std::shared_ptr<SwitchConn> conn,
                         const ConnectionInfo& info);
  void detachSwitch(of::DatapathId dpid);
  /// Descriptor supplied at attach time; empty for unknown dpids.
  std::optional<ConnectionInfo> connectionInfo(of::DatapathId dpid) const;
  void addLink(of::DatapathId a, of::PortNo aPort, of::DatapathId b,
               of::PortNo bPort);
  void learnHost(const net::Host& host);

  /// Entry point for packet-ins punted by switches. Interceptors (apps with
  /// the EVENT_INTERCEPTION capability) run first, in registration order; a
  /// consumed packet-in is not delivered to plain observers.
  void onPacketIn(const of::PacketIn& packetIn);
  /// Batched packet-in delivery: snapshots the interceptor/subscriber lists
  /// once for the whole batch instead of once per packet. Semantics per
  /// packet are identical to onPacketIn.
  void onPacketIns(const std::vector<of::PacketIn>& batch);
  void onSwitchError(const of::ErrorMsg& error);
  /// Idle/hard timeout expiry notification from a switch.
  void onFlowRemoved(const of::FlowRemoved& removed);

  // --- kernel operations (no permission checks here) -----------------------
  ApiResult kernelInsertFlow(of::AppId issuer, of::DatapathId dpid,
                             const of::FlowMod& mod);
  /// Batched insert: one southbound applyFlowMods call, one subscriber
  /// snapshot for the whole batch. Not transactional — each mod lands or
  /// fails independently; returns the first failure (or success). Equivalent
  /// to calling kernelInsertFlow per mod in order.
  ApiResult kernelInsertFlows(of::AppId issuer, of::DatapathId dpid,
                              const std::vector<of::FlowMod>& mods);
  ApiResult kernelDeleteFlow(of::AppId issuer, of::DatapathId dpid,
                             const of::FlowMatch& match, bool strict,
                             std::uint16_t priority);
  ApiResponse<std::vector<of::FlowEntry>> kernelReadFlowTable(
      of::DatapathId dpid) const;
  net::Topology kernelReadTopology() const;
  ApiResponse<of::StatsReply> kernelReadStatistics(
      const of::StatsRequest& request) const;
  ApiResult kernelSendPacketOut(const of::PacketOut& packetOut);
  void kernelPublishData(of::AppId publisher, const std::string& topic,
                         const std::string& payload);

  // --- event subscription ----------------------------------------------------
  // The sink decides the execution context: the baseline deployment invokes
  // the app handler inline; the SDNShield deployment posts to the app thread.
  // Every registration returns a SubscriptionId usable with
  // removeSubscription; removeSubscribers(app) drops all of an app's
  // registrations at once (quarantine / unload).
  SubscriptionId addPacketInSubscriber(of::AppId app, EventSink sink);
  /// An interceptor sees packet-ins before observers and may consume them
  /// (return true). Requires the EVENT_INTERCEPTION callback capability in
  /// the SDNShield deployment; interceptors run synchronously on the
  /// dispatch path (interception is inherently a synchronous decision).
  using EventInterceptor = std::function<bool(const Event&)>;
  SubscriptionId addPacketInInterceptor(of::AppId app,
                                        EventInterceptor interceptor);
  SubscriptionId addFlowSubscriber(of::AppId app, EventSink sink);
  SubscriptionId addTopologySubscriber(of::AppId app, EventSink sink);
  SubscriptionId addErrorSubscriber(of::AppId app, EventSink sink);
  SubscriptionId addDataSubscriber(of::AppId app, const std::string& topic,
                                   EventSink sink);
  /// Removes one registration by id. When `owner` is set, a mismatched owner
  /// refuses the removal (an app cannot cancel another app's subscription).
  /// Returns false if the id is unknown (or owned by someone else).
  bool removeSubscription(SubscriptionId id,
                          std::optional<of::AppId> owner = std::nullopt);
  void removeSubscribers(of::AppId app);

  /// Registrations currently live across all event lists (leak-detection
  /// surface for install/uninstall cycles).
  std::size_t subscriptionCount() const;

  // --- observability --------------------------------------------------------
  /// Builds the controller-wide /stats export: merged metrics snapshot,
  /// recent span trail and audit-log totals. Unprivileged kernel operation;
  /// permission gating happens in the API wrappers above it.
  StatsReport statsReport() const;

  // --- app market -----------------------------------------------------------
  /// Attaches (or detaches, with nullptr) the app-market control plane. The
  /// market outlives nothing here: the caller must clear it before the
  /// MarketControl is destroyed.
  void setMarketControl(MarketControl* market) {
    market_.store(market, std::memory_order_release);
  }
  MarketControl* marketControl() const {
    return market_.load(std::memory_order_acquire);
  }

  // --- sharding -------------------------------------------------------------
  /// Attaches (or detaches, with nullptr) the shard runtime. Same lifetime
  /// contract as setMarketControl: the caller clears it (and fences) before
  /// the ShardDispatch is destroyed. With a dispatch attached, onPacketIn /
  /// onPacketIns run their delivery on the owning shard's event loop and
  /// removeSubscribers fences every loop (quarantine barrier).
  void setShardDispatch(ShardDispatch* dispatch) {
    shardDispatch_.store(dispatch, std::memory_order_release);
  }
  ShardDispatch* shardDispatch() const {
    return shardDispatch_.load(std::memory_order_acquire);
  }

  // --- shared infrastructure ---------------------------------------------------
  engine::OwnershipTracker& ownership() { return ownership_; }
  engine::AuditLog& audit() { return audit_; }
  std::shared_ptr<SwitchConn> switchConn(of::DatapathId dpid) const;
  std::vector<of::DatapathId> switchIds() const;

  /// Handler exceptions contained on the dispatch path (a throwing inline
  /// subscriber or interceptor must not take down the controller or starve
  /// the remaining subscribers).
  std::uint64_t dispatchFaultCount() const {
    return dispatchFaults_.load(std::memory_order_relaxed);
  }

 private:
  struct Subscriber {
    SubscriptionId id;
    of::AppId app = 0;
    EventSink sink;
    std::string topic;  // Data subscribers only.
  };

  std::vector<Subscriber> snapshot(const std::vector<Subscriber>& list) const;
  void emitTopologyEvent(const TopologyEvent& event);
  struct Interceptor;
  void dispatchPacketIn(const of::PacketIn& packetIn,
                        const std::vector<Interceptor>& interceptors,
                        const std::vector<Subscriber>& subscribers);
  /// Invokes a subscriber sink with fault containment.
  void deliver(const Subscriber& subscriber, const Event& event);
  SubscriptionId nextSubscriptionId();

  mutable std::mutex mutex_;
  struct Attachment {
    std::shared_ptr<SwitchConn> conn;
    ConnectionInfo info;
  };
  std::map<of::DatapathId, Attachment> switches_;
  net::Topology topology_;
  struct Interceptor {
    SubscriptionId id;
    of::AppId app = 0;
    EventInterceptor intercept;
  };

  std::vector<Subscriber> packetInSubscribers_;
  std::vector<Interceptor> packetInInterceptors_;
  std::vector<Subscriber> flowSubscribers_;
  std::vector<Subscriber> topologySubscribers_;
  std::vector<Subscriber> errorSubscribers_;
  std::vector<Subscriber> dataSubscribers_;
  std::atomic<std::uint64_t> subscriptionSeq_{0};
  engine::OwnershipTracker ownership_;
  engine::AuditLog audit_;
  std::atomic<std::uint64_t> dispatchFaults_{0};
  std::atomic<MarketControl*> market_{nullptr};
  std::atomic<ShardDispatch*> shardDispatch_{nullptr};
};

}  // namespace sdnshield::ctrl
