// Benchmark-side tracing of the packet-in path. The L2 app is wrapped in a
// TracedApp whose AppContext and NorthboundApi forward every call to the
// real (shielded) ones and stamp, per probe, the handler span and one span
// per API call. The load generator stamps send and receive. All stamps are
// steady_clock nanoseconds in one process, joined on the probe tag, kept in
// a preallocated table and read after the stack has stopped.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/api.h"

namespace perfbench {

std::int64_t nowNs();

/// Stamps of one probe (0 = not recorded).
struct ProbeSpans {
  std::int64_t sent = 0;
  std::int64_t handlerIn = 0;
  std::int64_t handlerOut = 0;
  std::int64_t flowStart = 0;  ///< insertFlow call as the app sees it.
  std::int64_t flowEnd = 0;
  std::int64_t outStart = 0;   ///< sendPacketOut call.
  std::int64_t outEnd = 0;
  std::int64_t flowModRead = 0;
  std::int64_t packetOutRead = 0;
};

/// Fixed-capacity table indexed by probe tag. Distinct threads write
/// distinct fields of a slot; the table never reallocates.
class SpanTable {
 public:
  explicit SpanTable(std::size_t capacity) : slots_(capacity) {}
  ProbeSpans* slot(std::uint32_t tag) {
    return tag < slots_.size() ? &slots_[tag] : nullptr;
  }
  const std::vector<ProbeSpans>& slots() const { return slots_; }

 private:
  std::vector<ProbeSpans> slots_;
};

/// Wraps @p inner so that its packet-in handler and its insertFlow /
/// sendPacketOut calls are stamped into @p spans. Name and manifest are the
/// inner app's, so the permission grant is unchanged.
std::shared_ptr<sdnshield::ctrl::App> makeTracedApp(
    std::shared_ptr<sdnshield::ctrl::App> inner, SpanTable& spans);

}  // namespace perfbench
