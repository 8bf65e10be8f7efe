// The `sdnshield` binary: the library's wire-facing entry points.
//
//   sdnshield serve  [--port P] [--port-file F] [--max-seconds S]
//                    [--shards N]
//       Controller + ShieldRuntime + L2 learning app behind the epoll
//       OpenFlow 1.0 frontend (net::OfServer). Binds 127.0.0.1 (port 0 =
//       ephemeral; the bound port is printed and optionally written to
//       --port-file so scripts can coordinate). Runs until SIGINT/SIGTERM
//       or --max-seconds. --shards N > 1 runs the sharded controller
//       substrate (shard::ShardRuntime) with one server reactor per shard;
//       N = 1 (the default) is the single-pipeline compatibility mode.
//
//   sdnshield cbench --port P [--connections N] [--rounds R] [--json F]
//       CBench-over-TCP loopback client (net::runCbenchClient): N emulated
//       switches handshake, announce hosts, and run R closed-loop
//       latency rounds each. Prints a summary; --json appends a wire_row
//       (scripts/bench_schema.json) to F.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/l2_learning.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "net/cbench_client.h"
#include "net/of_server.h"
#include "shard/shard_runtime.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sdnshield serve  [--port P] [--port-file F] "
               "[--max-seconds S] [--shards N]\n"
               "  sdnshield cbench --port P [--connections N] [--rounds R] "
               "[--timeout-ms T] [--json F]\n");
  return 2;
}

long argValue(int argc, char** argv, const char* name, long fallback) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atol(argv[i + 1]);
  }
  return fallback;
}

const char* argString(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

int runServe(int argc, char** argv) {
  using namespace sdnshield;
  long shardsArg = argValue(argc, argv, "--shards", 1);
  std::size_t shards = shardsArg < 1 ? 1 : static_cast<std::size_t>(shardsArg);

  ctrl::Controller controller;
  shard::ShardOptions shardOptions;
  shardOptions.shards = shards;
  shard::ShardRuntime runtime(shardOptions);
  runtime.start();
  runtime.attach(controller);
  iso::ShieldRuntime shield(controller);
  auto app = std::make_shared<apps::L2LearningSwitch>();
  shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));

  net::OfServerConfig config;
  config.port = static_cast<std::uint16_t>(argValue(argc, argv, "--port", 0));
  config.ioThreads = shards;
  net::OfServer server(controller, config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "sdnshield serve: %s\n", error.c_str());
    return 1;
  }
  std::printf("sdnshield serve: listening on 127.0.0.1:%u (%zu shard%s)\n",
              server.port(), shards, shards == 1 ? "" : "s");
  std::fflush(stdout);
  if (const char* portFile = argString(argc, argv, "--port-file")) {
    if (std::FILE* f = std::fopen(portFile, "w")) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }
  long maxSeconds = argValue(argc, argv, "--max-seconds", 0);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  auto start = std::chrono::steady_clock::now();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (maxSeconds > 0 && std::chrono::steady_clock::now() - start >
                              std::chrono::seconds(maxSeconds)) {
      break;
    }
  }
  std::printf("sdnshield serve: %zu switches attached, shutting down\n",
              server.attachedCount());
  server.stop();
  shield.shutdown();
  runtime.detach(controller);
  runtime.stop();
  return 0;
}

int runCbench(int argc, char** argv) {
  using namespace sdnshield;
  net::CbenchClientConfig config;
  config.port = static_cast<std::uint16_t>(argValue(argc, argv, "--port", 0));
  if (config.port == 0) return usage();
  config.connections =
      static_cast<std::size_t>(argValue(argc, argv, "--connections", 16));
  config.rounds = static_cast<std::size_t>(argValue(argc, argv, "--rounds", 10));
  config.roundTimeout = std::chrono::milliseconds(
      argValue(argc, argv, "--timeout-ms", 1000));

  auto start = std::chrono::steady_clock::now();
  net::CbenchClientResult result = net::runCbenchClient(config);
  double durationSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf(
      "cbench: %zu/%zu handshaked, %zu rounds, %zu timeouts\n"
      "latency us: median=%.1f p90=%.1f mean=%.1f\n"
      "flow-mods=%llu packet-outs=%llu (%.0f responses/sec)\n",
      result.handshaked, config.connections, result.roundsCompleted,
      result.timeouts, result.medianUs(), result.p90Us(), result.meanUs(),
      static_cast<unsigned long long>(result.flowModsReceived),
      static_cast<unsigned long long>(result.packetOutsReceived),
      durationSec > 0 ? static_cast<double>(result.roundsCompleted) /
                            durationSec
                      : 0.0);
  if (!result.ok) {
    std::fprintf(stderr, "cbench: %s\n", result.error.c_str());
  }

  if (const char* jsonPath = argString(argc, argv, "--json")) {
    if (std::FILE* f = std::fopen(jsonPath, "a")) {
      std::fprintf(
          f,
          "{\"bench\": \"wire\", \"mode\": \"cbench\", "
          "\"connections\": %zu, \"rounds\": %zu, "
          "\"handshaked\": %zu, \"timeouts\": %zu, "
          "\"latency_median_us\": %.3f, \"latency_p90_us\": %.3f, "
          "\"latency_mean_us\": %.3f, \"responses_per_sec\": %.1f, "
          "\"flow_mods\": %llu}\n",
          config.connections, config.rounds, result.handshaked,
          result.timeouts, result.medianUs(), result.p90Us(),
          result.meanUs(),
          durationSec > 0
              ? static_cast<double>(result.roundsCompleted) / durationSec
              : 0.0,
          static_cast<unsigned long long>(result.flowModsReceived));
      std::fclose(f);
    }
  }
  return result.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "serve") == 0) return runServe(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "cbench") == 0) return runCbench(argc - 2, argv + 2);
  return usage();
}
