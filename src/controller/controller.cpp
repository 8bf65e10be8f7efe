#include "controller/controller.h"

#include <algorithm>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdnshield::ctrl {

namespace {

/// what() of the in-flight exception (for fault audit records). Must be
/// called from inside a catch block.
std::string currentExceptionWhat() {
  try {
    throw;
  } catch (const std::exception& error) {
    return error.what();
  } catch (...) {
    return "unknown exception";
  }
}

struct DispatchMetrics {
  obs::Histogram latency =
      obs::Registry::global().histogram("controller.dispatch_ns");
  obs::Counter delivered =
      obs::Registry::global().counter("controller.dispatched");
  obs::Counter faults =
      obs::Registry::global().counter("controller.dispatch_faults");
  /// Packet-in dispatches routed to a shard event loop vs. run inline on
  /// the calling thread (no dispatch attached == the pre-shard pipeline).
  obs::Counter sharded =
      obs::Registry::global().counter("controller.dispatch_sharded");
  obs::Counter inline_ =
      obs::Registry::global().counter("controller.dispatch_inline");
};

const DispatchMetrics& dispatchMetrics() {
  static const DispatchMetrics metrics;
  return metrics;
}

}  // namespace

const char* toString(ApiErrc code) {
  switch (code) {
    case ApiErrc::kOk:
      return "ok";
    case ApiErrc::kPermissionDenied:
      return "permission_denied";
    case ApiErrc::kDeadlineExceeded:
      return "deadline_exceeded";
    case ApiErrc::kQueueFull:
      return "queue_full";
    case ApiErrc::kTableFull:
      return "table_full";
    case ApiErrc::kPoolStopped:
      return "pool_stopped";
    case ApiErrc::kAppQuarantined:
      return "app_quarantined";
    case ApiErrc::kInvalidArgument:
      return "invalid_argument";
    case ApiErrc::kTransactionAborted:
      return "transaction_aborted";
    case ApiErrc::kConnClosed:
      return "conn_closed";
    case ApiErrc::kFramingError:
      return "framing_error";
  }
  return "unknown";
}

void Controller::deliver(const Subscriber& subscriber, const Event& event) {
  // Fault containment on the dispatch path: a throwing handler (inline in
  // the baseline deployment, or a failing sink wrapper in the shielded one)
  // must not unwind into the controller or starve later subscribers.
  std::int64_t startNs = obs::Tracer::nowNs();
  try {
    subscriber.sink(event);
  } catch (...) {
    dispatchFaults_.fetch_add(1, std::memory_order_relaxed);
    dispatchMetrics().faults.increment();
    audit_.recordFault(subscriber.app,
                       "event handler threw: " + currentExceptionWhat());
  }
  std::int64_t durationNs = obs::Tracer::nowNs() - startNs;
  dispatchMetrics().delivered.increment();
  dispatchMetrics().latency.record(durationNs);
  obs::Tracer::global().record("controller.deliver", startNs, durationNs);
}

std::string StatsReport::toText() const {
  std::string out = obs::renderText(metrics);
  out += "audit records=" + std::to_string(auditRecords) +
         " denied=" + std::to_string(auditDenied) +
         " faults=" + std::to_string(auditFaults) +
         " dispatch_faults=" + std::to_string(dispatchFaults) + "\n";
  if (!marketDigest.empty()) out += "market " + marketDigest + "\n";
  if (!recentSpans.empty()) {
    out += "spans " + obs::Tracer::formatTrail(recentSpans) + "\n";
  }
  return out;
}

std::string StatsReport::toJson() const {
  std::string metricsJson = obs::renderJson(metrics);
  std::string out = "{\"metrics\":" + metricsJson;
  out += ",\"audit\":{\"records\":" + std::to_string(auditRecords) +
         ",\"denied\":" + std::to_string(auditDenied) +
         ",\"faults\":" + std::to_string(auditFaults) +
         ",\"dispatch_faults\":" + std::to_string(dispatchFaults) + "}";
  if (!marketDigest.empty()) {
    out += ",\"market_digest\":\"";
    for (char c : marketDigest) {  // Digest is single-line by construction.
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += ",\"recent_spans\":[";
  for (std::size_t i = 0; i < recentSpans.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + recentSpans[i].name +
           "\",\"start_ns\":" + std::to_string(recentSpans[i].startNs) +
           ",\"duration_ns\":" + std::to_string(recentSpans[i].durationNs) +
           ",\"seq\":" + std::to_string(recentSpans[i].seq) + "}";
  }
  out += "]}";
  return out;
}

StatsReport Controller::statsReport() const {
  StatsReport report;
  report.metrics = obs::Registry::global().snapshot();
  report.recentSpans = obs::Tracer::global().recentSpans();
  report.auditRecords = audit_.totalRecorded();
  report.auditDenied = audit_.deniedCount();
  report.auditFaults = audit_.faultCount();
  report.dispatchFaults = dispatchFaults_.load(std::memory_order_relaxed);
  if (MarketControl* market = marketControl()) {
    report.marketDigest = market->digest();
  }
  return report;
}

std::size_t Controller::subscriptionCount() const {
  std::lock_guard lock(mutex_);
  return packetInSubscribers_.size() + packetInInterceptors_.size() +
         flowSubscribers_.size() + topologySubscribers_.size() +
         errorSubscribers_.size() + dataSubscribers_.size();
}

ApiResult Controller::attachSwitch(std::shared_ptr<SwitchConn> conn,
                                   const ConnectionInfo& info) {
  if (!conn) {
    return ApiResult::failure(ApiErrc::kInvalidArgument, "null connection");
  }
  if (info.dpid == 0) {
    return ApiResult::failure(ApiErrc::kInvalidArgument, "zero dpid");
  }
  {
    std::lock_guard lock(mutex_);
    switches_[info.dpid] = Attachment{std::move(conn), info};
    topology_.addSwitch(info.dpid);
  }
  obs::Registry::global().counter("controller.switch_attached").increment();
  emitTopologyEvent(TopologyEvent{TopologyChange::kSwitchUp, info.dpid, 0});
  return ApiResult::success();
}

std::optional<ConnectionInfo> Controller::connectionInfo(
    of::DatapathId dpid) const {
  std::lock_guard lock(mutex_);
  auto it = switches_.find(dpid);
  if (it == switches_.end()) return std::nullopt;
  return it->second.info;
}

void Controller::detachSwitch(of::DatapathId dpid) {
  {
    std::lock_guard lock(mutex_);
    switches_.erase(dpid);
    topology_.removeSwitch(dpid);
  }
  emitTopologyEvent(TopologyEvent{TopologyChange::kSwitchDown, dpid, 0});
}

void Controller::addLink(of::DatapathId a, of::PortNo aPort, of::DatapathId b,
                         of::PortNo bPort) {
  {
    std::lock_guard lock(mutex_);
    topology_.addLink(a, aPort, b, bPort);
  }
  emitTopologyEvent(TopologyEvent{TopologyChange::kLinkUp, a, b});
}

void Controller::learnHost(const net::Host& host) {
  {
    std::lock_guard lock(mutex_);
    topology_.attachHost(host);
  }
  emitTopologyEvent(TopologyEvent{TopologyChange::kHostSeen, host.dpid, 0});
}

void Controller::onPacketIn(const of::PacketIn& packetIn) {
  std::vector<Interceptor> interceptors;
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    interceptors = packetInInterceptors_;
    subscribers = packetInSubscribers_;
  }
  if (ShardDispatch* shards = shardDispatch()) {
    // Hop to the event loop owning this switch; the caller (a wire reactor,
    // a cbench generator, a sim switch) blocks until delivery completes, so
    // per-switch packet-in order is preserved exactly as in the inline path.
    dispatchMetrics().sharded.increment();
    shards->runOnShard(shards->shardOf(packetIn.dpid), [&] {
      dispatchPacketIn(packetIn, interceptors, subscribers);
    });
    return;
  }
  dispatchMetrics().inline_.increment();
  dispatchPacketIn(packetIn, interceptors, subscribers);
}

void Controller::onPacketIns(const std::vector<of::PacketIn>& batch) {
  if (batch.empty()) return;
  std::vector<Interceptor> interceptors;
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    interceptors = packetInInterceptors_;
    subscribers = packetInSubscribers_;
  }
  if (ShardDispatch* shards = shardDispatch()) {
    // Split the batch by home shard, preserving arrival order within each
    // shard (and therefore per-switch order). With shards=1 this is one
    // group in original order — bit-identical to the inline loop below.
    dispatchMetrics().sharded.increment();
    std::size_t shardCount = shards->shardCount();
    std::vector<std::vector<const of::PacketIn*>> groups(shardCount);
    for (const of::PacketIn& packetIn : batch) {
      groups[shards->shardOf(packetIn.dpid)].push_back(&packetIn);
    }
    for (std::size_t s = 0; s < shardCount; ++s) {
      if (groups[s].empty()) continue;
      shards->runOnShard(s, [&, s] {
        for (const of::PacketIn* packetIn : groups[s]) {
          dispatchPacketIn(*packetIn, interceptors, subscribers);
        }
      });
    }
    return;
  }
  dispatchMetrics().inline_.increment();
  for (const of::PacketIn& packetIn : batch) {
    dispatchPacketIn(packetIn, interceptors, subscribers);
  }
}

void Controller::dispatchPacketIn(const of::PacketIn& packetIn,
                                  const std::vector<Interceptor>& interceptors,
                                  const std::vector<Subscriber>& subscribers) {
  Event event{PacketInEvent{packetIn}};
  for (const Interceptor& interceptor : interceptors) {
    try {
      if (interceptor.intercept(event)) return;  // Consumed.
    } catch (...) {
      // A faulting interceptor forfeits its consume decision; observers
      // still see the packet.
      dispatchFaults_.fetch_add(1, std::memory_order_relaxed);
      audit_.recordFault(interceptor.app,
                         "interceptor threw: " + currentExceptionWhat());
    }
  }
  for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
}

void Controller::onFlowRemoved(const of::FlowRemoved& removed) {
  // The cookie carries the issuing app id (stamped at insert time).
  ownership_.recordDelete(removed.dpid, removed.match, removed.priority,
                          /*strict=*/true);
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = flowSubscribers_;
  }
  Event event{FlowEvent{removed.dpid, FlowChange::kRemoved, removed.match,
                        removed.priority,
                        static_cast<of::AppId>(removed.cookie)}};
  for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
}

SubscriptionId Controller::addPacketInInterceptor(of::AppId app,
                                                  EventInterceptor interceptor) {
  SubscriptionId id = nextSubscriptionId();
  std::lock_guard lock(mutex_);
  packetInInterceptors_.push_back(Interceptor{id, app, std::move(interceptor)});
  return id;
}

void Controller::onSwitchError(const of::ErrorMsg& error) {
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = errorSubscribers_;
  }
  Event event{ErrorEvent{error}};
  for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
}

ApiResult Controller::kernelInsertFlow(of::AppId issuer, of::DatapathId dpid,
                                       const of::FlowMod& mod) {
  std::shared_ptr<SwitchConn> conn = switchConn(dpid);
  if (!conn) {
    return ApiResult::failure(ApiErrc::kInvalidArgument, "unknown switch");
  }
  of::FlowMod stamped = mod;
  stamped.cookie = issuer;
  if (ApiResult applied = conn->applyFlowMod(stamped); !applied.ok()) {
    if (applied.code() == ApiErrc::kTableFull) {
      onSwitchError(
          of::ErrorMsg{dpid, of::ErrorType::kTableFull, "table full"});
    }
    return applied;
  }
  bool modify = mod.command == of::FlowModCommand::kModify ||
                mod.command == of::FlowModCommand::kModifyStrict;
  if (!modify) ownership_.recordInsert(issuer, dpid, mod.match, mod.priority);
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = flowSubscribers_;
  }
  Event event{FlowEvent{dpid,
                        modify ? FlowChange::kModified : FlowChange::kInstalled,
                        mod.match, mod.priority, issuer}};
  for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
  return ApiResult::success();
}

ApiResult Controller::kernelInsertFlows(of::AppId issuer, of::DatapathId dpid,
                                        const std::vector<of::FlowMod>& mods) {
  if (mods.empty()) return ApiResult::success();
  std::shared_ptr<SwitchConn> conn = switchConn(dpid);
  if (!conn) {
    return ApiResult::failure(ApiErrc::kInvalidArgument, "unknown switch");
  }
  std::vector<of::FlowMod> stamped = mods;
  for (of::FlowMod& mod : stamped) mod.cookie = issuer;
  std::vector<ApiResult> applied = conn->applyFlowMods(stamped);
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = flowSubscribers_;
  }
  ApiResult result = ApiResult::success();
  for (std::size_t i = 0; i < mods.size(); ++i) {
    if (i < applied.size() && !applied[i].ok()) {
      if (applied[i].code() == ApiErrc::kTableFull) {
        onSwitchError(
            of::ErrorMsg{dpid, of::ErrorType::kTableFull, "table full"});
      }
      if (result.ok()) result = applied[i];
      continue;
    }
    const of::FlowMod& mod = mods[i];
    bool modify = mod.command == of::FlowModCommand::kModify ||
                  mod.command == of::FlowModCommand::kModifyStrict;
    if (!modify) ownership_.recordInsert(issuer, dpid, mod.match, mod.priority);
    Event event{FlowEvent{
        dpid, modify ? FlowChange::kModified : FlowChange::kInstalled,
        mod.match, mod.priority, issuer}};
    for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
  }
  return result;
}

ApiResult Controller::kernelDeleteFlow(of::AppId issuer, of::DatapathId dpid,
                                       const of::FlowMatch& match, bool strict,
                                       std::uint16_t priority) {
  std::shared_ptr<SwitchConn> conn = switchConn(dpid);
  if (!conn) {
    return ApiResult::failure(ApiErrc::kInvalidArgument, "unknown switch");
  }
  of::FlowMod mod;
  mod.command =
      strict ? of::FlowModCommand::kDeleteStrict : of::FlowModCommand::kDelete;
  mod.match = match;
  mod.priority = priority;
  mod.cookie = issuer;
  if (ApiResult applied = conn->applyFlowMod(mod); !applied.ok()) {
    return applied;
  }
  ownership_.recordDelete(dpid, match, priority, strict);
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = flowSubscribers_;
  }
  Event event{
      FlowEvent{dpid, FlowChange::kRemoved, match, priority, issuer}};
  for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
  return ApiResult::success();
}

ApiResponse<std::vector<of::FlowEntry>> Controller::kernelReadFlowTable(
    of::DatapathId dpid) const {
  std::shared_ptr<SwitchConn> conn = switchConn(dpid);
  if (!conn) {
    return ApiResponse<std::vector<of::FlowEntry>>::failure(
        ApiErrc::kInvalidArgument, "unknown switch");
  }
  return conn->dumpFlows();
}

net::Topology Controller::kernelReadTopology() const {
  std::lock_guard lock(mutex_);
  return topology_;
}

ApiResponse<of::StatsReply> Controller::kernelReadStatistics(
    const of::StatsRequest& request) const {
  std::shared_ptr<SwitchConn> conn = switchConn(request.dpid);
  if (!conn) {
    return ApiResponse<of::StatsReply>::failure(ApiErrc::kInvalidArgument,
                                                "unknown switch");
  }
  return conn->queryStats(request);
}

ApiResult Controller::kernelSendPacketOut(const of::PacketOut& packetOut) {
  std::shared_ptr<SwitchConn> conn = switchConn(packetOut.dpid);
  if (!conn) {
    return ApiResult::failure(ApiErrc::kInvalidArgument, "unknown switch");
  }
  return conn->transmitPacket(packetOut);
}

void Controller::kernelPublishData(of::AppId publisher,
                                   const std::string& topic,
                                   const std::string& payload) {
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = dataSubscribers_;
  }
  Event event{DataUpdateEvent{topic, payload, publisher}};
  for (const Subscriber& subscriber : subscribers) {
    if (subscriber.topic == topic) deliver(subscriber, event);
  }
}

SubscriptionId Controller::nextSubscriptionId() {
  return SubscriptionId{
      subscriptionSeq_.fetch_add(1, std::memory_order_relaxed) + 1};
}

SubscriptionId Controller::addPacketInSubscriber(of::AppId app,
                                                 EventSink sink) {
  SubscriptionId id = nextSubscriptionId();
  std::lock_guard lock(mutex_);
  packetInSubscribers_.push_back(Subscriber{id, app, std::move(sink), {}});
  return id;
}

SubscriptionId Controller::addFlowSubscriber(of::AppId app, EventSink sink) {
  SubscriptionId id = nextSubscriptionId();
  std::lock_guard lock(mutex_);
  flowSubscribers_.push_back(Subscriber{id, app, std::move(sink), {}});
  return id;
}

SubscriptionId Controller::addTopologySubscriber(of::AppId app,
                                                 EventSink sink) {
  SubscriptionId id = nextSubscriptionId();
  std::lock_guard lock(mutex_);
  topologySubscribers_.push_back(Subscriber{id, app, std::move(sink), {}});
  return id;
}

SubscriptionId Controller::addErrorSubscriber(of::AppId app, EventSink sink) {
  SubscriptionId id = nextSubscriptionId();
  std::lock_guard lock(mutex_);
  errorSubscribers_.push_back(Subscriber{id, app, std::move(sink), {}});
  return id;
}

SubscriptionId Controller::addDataSubscriber(of::AppId app,
                                             const std::string& topic,
                                             EventSink sink) {
  SubscriptionId id = nextSubscriptionId();
  std::lock_guard lock(mutex_);
  dataSubscribers_.push_back(Subscriber{id, app, std::move(sink), topic});
  return id;
}

bool Controller::removeSubscription(SubscriptionId id,
                                    std::optional<of::AppId> owner) {
  if (!id) return false;
  std::lock_guard lock(mutex_);
  auto matches = [&](SubscriptionId subId, of::AppId subApp) {
    return subId == id && (!owner.has_value() || *owner == subApp);
  };
  auto dropFrom = [&](std::vector<Subscriber>& list) {
    return std::erase_if(list, [&](const Subscriber& sub) {
             return matches(sub.id, sub.app);
           }) > 0;
  };
  if (dropFrom(packetInSubscribers_) || dropFrom(flowSubscribers_) ||
      dropFrom(topologySubscribers_) || dropFrom(errorSubscribers_) ||
      dropFrom(dataSubscribers_)) {
    return true;
  }
  return std::erase_if(packetInInterceptors_, [&](const Interceptor& i) {
           return matches(i.id, i.app);
         }) > 0;
}

void Controller::removeSubscribers(of::AppId app) {
  {
    std::lock_guard lock(mutex_);
    auto drop = [&](std::vector<Subscriber>& list) {
      std::erase_if(list,
                    [&](const Subscriber& sub) { return sub.app == app; });
    };
    drop(packetInSubscribers_);
    std::erase_if(packetInInterceptors_,
                  [&](const Interceptor& i) { return i.app == app; });
    drop(flowSubscribers_);
    drop(topologySubscribers_);
    drop(errorSubscribers_);
    drop(dataSubscribers_);
  }
  if (ShardDispatch* shards = shardDispatch()) {
    // Quarantine barrier: dispatch snapshots taken before the erase may
    // still reference this app's sinks; fencing every shard loop bounds
    // that window — once removeSubscribers returns, no shard will start a
    // new delivery to the removed app.
    shards->fenceShards();
  }
}

std::shared_ptr<SwitchConn> Controller::switchConn(of::DatapathId dpid) const {
  std::lock_guard lock(mutex_);
  auto it = switches_.find(dpid);
  return it == switches_.end() ? nullptr : it->second.conn;
}

std::vector<of::DatapathId> Controller::switchIds() const {
  std::lock_guard lock(mutex_);
  std::vector<of::DatapathId> out;
  out.reserve(switches_.size());
  for (const auto& [dpid, _] : switches_) out.push_back(dpid);
  return out;
}

void Controller::emitTopologyEvent(const TopologyEvent& topoEvent) {
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard lock(mutex_);
    subscribers = topologySubscribers_;
  }
  Event event{topoEvent};
  for (const Subscriber& subscriber : subscribers) deliver(subscriber, event);
}

}  // namespace sdnshield::ctrl
