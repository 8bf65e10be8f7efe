// Single-threaded epoll load generator: emulates OpenFlow 1.0 switches on
// loopback TCP, built on the public net::Framer and of::wire codecs. Each
// switch handshakes, announces its hosts (ARP packet-ins, windowed so the
// app mailbox never overflows), then runs a closed loop with a fixed number
// of tagged probes outstanding. Every answer goes through the Oracle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "oracle.h"
#include "tracing.h"

namespace perfbench {

struct LoadgenOptions {
  std::uint16_t port = 0;
  std::size_t window = 1;  ///< Probes outstanding per switch.
  /// Stamp send/receive per probe, and keep the client-to-server bytes and
  /// the decoded flow-mods of the timed phase (for the traced replays).
  SpanTable* spans = nullptr;
};

struct PhaseResult {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;  ///< Deadline of the timed phase.
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t answeredByDeadline = 0;
  std::uint64_t floods = 0;       ///< Answered probes to unannounced hosts.
  std::uint64_t failedProbes = 0;
  std::uint64_t strayFailures = 0;  ///< Duplicate or unattributable frames.
  std::uint64_t lateAnswers = 0;
  std::map<Failure, std::uint64_t> failures;
  struct Answer {
    std::int64_t sentNs = 0;
    std::int64_t doneNs = 0;     ///< Packet-out read: the probe completed.
    std::int64_t latencyNs = 0;  ///< Send to the first answer frame.
  };
  std::vector<Answer> answers;

  std::uint64_t failed() const { return failedProbes + strayFailures; }
};

struct CapturedFlowMod {
  sdnshield::of::DatapathId dpid = 0;
  sdnshield::of::FlowMod mod;
};

class LoadGen {
 public:
  /// @p inputs must outlive the generator.
  LoadGen(const Inputs& inputs, LoadgenOptions options);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Connects every switch and completes the features handshake.
  bool connect(std::string* error);
  /// Announces every host of every switch and waits for each announcement's
  /// flood answer.
  bool announce(std::string* error);
  /// Closed loop for @p durationNs; then drains open probes (up to the
  /// probe timeout). Latencies are recorded for every answered probe.
  PhaseResult run(std::int64_t durationNs);

  const std::vector<std::uint8_t>& capturedBytes() const { return txBytes_; }
  const std::vector<CapturedFlowMod>& capturedFlowMods() const {
    return flowMods_;
  }
  /// Fatal transport error (framing, EOF), empty when none.
  const std::string& error() const { return error_; }

 private:
  struct Conn;

  void sendFrame(Conn& conn, const std::vector<std::uint8_t>& frame);
  void flush(Conn& conn);
  void sendProbe(Conn& conn, PhaseResult* result);
  void sendAnnouncement(Conn& conn);
  /// Waits up to @p timeoutMs for socket events and handles them.
  void poll(int timeoutMs, PhaseResult* result);
  void onReadable(Conn& conn, PhaseResult* result);
  void record(Conn& conn, const Outcome& outcome, PhaseResult* result);
  void fatal(const std::string& what);

  LoadgenOptions options_;
  int epollFd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint32_t nextTag_ = 1;
  bool sending_ = false;
  bool capturing_ = false;
  std::vector<std::uint8_t> txBytes_;
  std::vector<CapturedFlowMod> flowMods_;
  std::string error_;
};

}  // namespace perfbench
