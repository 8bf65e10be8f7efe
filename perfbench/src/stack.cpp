#include "stack.h"

#include <stdexcept>

#include "apps/l2_learning.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"

namespace perfbench {

namespace sd = sdnshield;

namespace {

sd::shard::ShardOptions shardOptions(std::size_t shards) {
  sd::shard::ShardOptions options;
  options.shards = shards;
  return options;
}

}  // namespace

sd::market::AppFactory marketAppFactory(const MarketInputs& market) {
  return [&market](const std::string& name,
                   std::uint32_t) -> std::shared_ptr<sd::ctrl::App> {
    if (name == "l2_learning") {
      return std::make_shared<sd::apps::L2LearningSwitch>();
    }
    for (std::size_t g = 0; g < market.groupManifests.size(); ++g) {
      if (name == stubAppName(g)) {
        return std::make_shared<StubApp>(name, market.groupManifests[g]);
      }
    }
    return nullptr;
  };
}

ServeStack::ServeStack(const StackOptions& options)
    : shards_(shardOptions(options.shards)) {
  shards_.start();
  shards_.attach(controller_);
  shield_ = std::make_unique<sd::iso::ShieldRuntime>(controller_);
  shards_.attachEngine(shield_->engine());

  std::shared_ptr<sd::ctrl::App> app =
      std::make_shared<sd::apps::L2LearningSwitch>();
  if (options.spans != nullptr) app = makeTracedApp(app, *options.spans);
  if (options.market == nullptr) {
    l2App_ = shield_->loadApp(
        app, sd::lang::parsePermissions(app->requestedManifest()));
  } else {
    market_ = std::make_unique<sd::market::AppMarket>(
        *shield_, sd::lang::parsePolicy(options.initialPolicy));
    auto installed = market_->installApp(app);
    if (!installed.ok()) {
      throw std::runtime_error("market install of l2_learning: " +
                               installed.error().toString());
    }
    l2App_ = installed.value();
    for (std::size_t group : options.market->stubGroups) {
      auto stub = market_->installApp(std::make_shared<StubApp>(
          stubAppName(group), options.market->groupManifests[group]));
      if (!stub.ok()) {
        throw std::runtime_error("market install of " + stubAppName(group) +
                                 ": " + stub.error().toString());
      }
    }
  }

  sd::net::OfServerConfig config;
  config.ioThreads = options.shards;
  server_ = std::make_unique<sd::net::OfServer>(controller_, config);
  std::string error;
  if (!server_->start(&error)) {
    throw std::runtime_error("OfServer start: " + error);
  }
}

ServeStack::~ServeStack() {
  // runServe's teardown order; the market detaches itself from the
  // controller before the runtime shuts down.
  server_->stop();
  market_.reset();
  shield_->shutdown();
  shards_.detachEngine(shield_->engine());
  shards_.detach(controller_);
  shards_.stop();
}

}  // namespace perfbench
