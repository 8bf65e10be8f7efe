#include "tracing.h"

#include <chrono>

#include "oracle.h"

namespace perfbench {

namespace ctrl = sdnshield::ctrl;
namespace of = sdnshield::of;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Spans of the probe whose handler runs on this thread.
thread_local ProbeSpans* t_probe = nullptr;

class TracingApi final : public ctrl::NorthboundApi {
 public:
  explicit TracingApi(ctrl::NorthboundApi& inner) : inner_(inner) {}

  ctrl::ApiResult insertFlow(of::DatapathId dpid,
                             const of::FlowMod& mod) override {
    ProbeSpans* spans = t_probe;
    if (spans == nullptr) return inner_.insertFlow(dpid, mod);
    spans->flowStart = nowNs();
    ctrl::ApiResult result = inner_.insertFlow(dpid, mod);
    spans->flowEnd = nowNs();
    return result;
  }
  ctrl::ApiResult sendPacketOut(const of::PacketOut& packetOut) override {
    ProbeSpans* spans = t_probe;
    if (spans == nullptr) return inner_.sendPacketOut(packetOut);
    spans->outStart = nowNs();
    ctrl::ApiResult result = inner_.sendPacketOut(packetOut);
    spans->outEnd = nowNs();
    return result;
  }

  ctrl::ApiResult insertFlows(of::DatapathId dpid,
                              const std::vector<of::FlowMod>& mods) override {
    return inner_.insertFlows(dpid, mods);
  }
  ctrl::ApiResult deleteFlow(of::DatapathId dpid, const of::FlowMatch& match,
                             bool strict, std::uint16_t priority) override {
    return inner_.deleteFlow(dpid, match, strict, priority);
  }
  ctrl::ApiResult commitFlowTransaction(
      const std::vector<std::pair<of::DatapathId, of::FlowMod>>& mods)
      override {
    return inner_.commitFlowTransaction(mods);
  }
  ctrl::ApiFuture<ctrl::ApiResult> insertFlowAsync(
      of::DatapathId dpid, const of::FlowMod& mod) override {
    return inner_.insertFlowAsync(dpid, mod);
  }
  ctrl::ApiFuture<ctrl::ApiResult> sendPacketOutAsync(
      const of::PacketOut& packetOut) override {
    return inner_.sendPacketOutAsync(packetOut);
  }
  ctrl::ApiResponse<std::vector<of::FlowEntry>> readFlowTable(
      of::DatapathId dpid) override {
    return inner_.readFlowTable(dpid);
  }
  ctrl::ApiResponse<sdnshield::net::Topology> readTopology() override {
    return inner_.readTopology();
  }
  ctrl::ApiResponse<of::StatsReply> readStatistics(
      const of::StatsRequest& request) override {
    return inner_.readStatistics(request);
  }
  ctrl::ApiResult publishData(const std::string& topic,
                              const std::string& payload) override {
    return inner_.publishData(topic, payload);
  }
  ctrl::ApiResponse<ctrl::StatsReport> statsReport() override {
    return inner_.statsReport();
  }
  ctrl::ApiResult updatePolicy(const std::string& policyText) override {
    return inner_.updatePolicy(policyText);
  }
  ctrl::ApiResult revokeApp(of::AppId app, const std::string& reason) override {
    return inner_.revokeApp(app, reason);
  }
  ctrl::ApiResponse<std::string> marketReport() override {
    return inner_.marketReport();
  }

 private:
  ctrl::NorthboundApi& inner_;
};

class TracingContext final : public ctrl::AppContext {
 public:
  TracingContext(ctrl::AppContext& inner, SpanTable& spans)
      : inner_(inner), spans_(spans), api_(inner.api()) {}

  of::AppId appId() const override { return inner_.appId(); }
  ctrl::NorthboundApi& api() override { return api_; }
  ctrl::HostServices& host() override { return inner_.host(); }

  ctrl::ApiResponse<ctrl::SubscriptionId> subscribePacketIn(
      std::function<void(const ctrl::PacketInEvent&)> handler) override {
    return inner_.subscribePacketIn(
        [this, handler = std::move(handler)](const ctrl::PacketInEvent& event) {
          std::uint32_t tag = 0;
          ProbeSpans* spans = probeTag(event.packetIn.packet, &tag)
                                  ? spans_.slot(tag)
                                  : nullptr;
          if (spans == nullptr) {
            handler(event);
            return;
          }
          spans->handlerIn = nowNs();
          t_probe = spans;
          handler(event);
          t_probe = nullptr;
          spans->handlerOut = nowNs();
        });
  }
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribePacketInInterceptor(
      std::function<bool(const ctrl::PacketInEvent&)> handler) override {
    return inner_.subscribePacketInInterceptor(std::move(handler));
  }
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeFlowEvents(
      std::function<void(const ctrl::FlowEvent&)> handler) override {
    return inner_.subscribeFlowEvents(std::move(handler));
  }
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeTopologyEvents(
      std::function<void(const ctrl::TopologyEvent&)> handler) override {
    return inner_.subscribeTopologyEvents(std::move(handler));
  }
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeErrorEvents(
      std::function<void(const ctrl::ErrorEvent&)> handler) override {
    return inner_.subscribeErrorEvents(std::move(handler));
  }
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeData(
      const std::string& topic,
      std::function<void(const ctrl::DataUpdateEvent&)> handler) override {
    return inner_.subscribeData(topic, std::move(handler));
  }
  ctrl::ApiResult unsubscribe(ctrl::SubscriptionId id) override {
    return inner_.unsubscribe(id);
  }

 private:
  ctrl::AppContext& inner_;
  SpanTable& spans_;
  TracingApi api_;
};

class TracedApp final : public ctrl::App {
 public:
  TracedApp(std::shared_ptr<ctrl::App> inner, SpanTable& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  std::string requestedManifest() const override {
    return inner_->requestedManifest();
  }
  void init(ctrl::AppContext& context) override {
    context_ = std::make_unique<TracingContext>(context, spans_);
    inner_->init(*context_);
  }

 private:
  std::shared_ptr<ctrl::App> inner_;
  SpanTable& spans_;
  std::unique_ptr<TracingContext> context_;
};

}  // namespace

std::shared_ptr<ctrl::App> makeTracedApp(std::shared_ptr<ctrl::App> inner,
                                         SpanTable& spans) {
  return std::make_shared<TracedApp>(std::move(inner), spans);
}

}  // namespace perfbench
