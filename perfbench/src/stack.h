// The stack under test, built the way `sdnshield serve` builds it
// (src/main/sdnshield_main.cpp, runServe): a Controller with a ShardRuntime
// attached to it and to the engine, a ShieldRuntime with default
// ShieldOptions, the L2 learning app and an OfServer with one reactor per
// shard. For market_churn the L2 app and the stub apps are installed through
// an AppMarket instead of ShieldRuntime::loadApp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "controller/controller.h"
#include "isolation/api_proxy.h"
#include "market/app_market.h"
#include "net/of_server.h"
#include "shard/shard_runtime.h"

#include "inputs.h"
#include "tracing.h"

namespace perfbench {

struct StackOptions {
  std::size_t shards = 1;
  SpanTable* spans = nullptr;          ///< Non-null: trace the L2 app.
  const MarketInputs* market = nullptr;  ///< Non-null: install via market.
  std::string initialPolicy;           ///< Market boot policy.
};

/// A stub market app: ships a manifest, subscribes to nothing.
class StubApp final : public sdnshield::ctrl::App {
 public:
  StubApp(std::string name, std::string manifest)
      : name_(std::move(name)), manifest_(std::move(manifest)) {}
  std::string name() const override { return name_; }
  std::string requestedManifest() const override { return manifest_; }
  void init(sdnshield::ctrl::AppContext&) override {}

 private:
  std::string name_;
  std::string manifest_;
};

/// Recreates the market's apps by name (journal replay).
sdnshield::market::AppFactory marketAppFactory(const MarketInputs& market);

class ServeStack {
 public:
  /// Builds and starts the stack; throws std::runtime_error on failure.
  explicit ServeStack(const StackOptions& options);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  std::uint16_t port() const { return server_->port(); }
  sdnshield::ctrl::Controller& controller() { return controller_; }
  sdnshield::shard::ShardRuntime& shards() { return shards_; }
  sdnshield::iso::ShieldRuntime& shield() { return *shield_; }
  sdnshield::net::OfServer& server() { return *server_; }
  sdnshield::market::AppMarket* market() { return market_.get(); }
  sdnshield::of::AppId l2App() const { return l2App_; }

 private:
  sdnshield::ctrl::Controller controller_;
  sdnshield::shard::ShardRuntime shards_;
  std::unique_ptr<sdnshield::iso::ShieldRuntime> shield_;
  std::unique_ptr<sdnshield::market::AppMarket> market_;
  std::unique_ptr<sdnshield::net::OfServer> server_;
  sdnshield::of::AppId l2App_ = 0;
};

}  // namespace perfbench
