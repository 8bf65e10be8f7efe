#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>

#include "net/framer.h"
#include "of/packet.h"
#include "of/wire.h"

namespace perfbench {

namespace of = sdnshield::of;
namespace wire = sdnshield::of::wire;

namespace {

constexpr std::size_t kAnnounceWindow = 64;
/// A probe with no complete answer after this long fails as timed out.
constexpr std::int64_t kProbeTimeoutNs = 2'000'000'000;
constexpr std::size_t kCaptureLimit = 8u << 20;
constexpr std::size_t kFlowModCaptureLimit = 65536;

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  const SwitchInputs* in = nullptr;
  sdnshield::net::Framer framer;
  std::vector<std::uint8_t> tx;
  bool txArmed = false;
  bool handshaked = false;
  std::size_t announceNext = 0;  ///< Into [source, announced...].
  std::size_t announced = 0;
  std::unordered_set<std::uint64_t> announcing;  ///< MACs awaiting flood.
  std::size_t cursor = 0;
  Oracle oracle;

  std::size_t announceTotal() const { return 1 + in->announced.size(); }
  const HostSpec& announceHost(std::size_t i) const {
    return i == 0 ? in->source : in->announced[i - 1];
  }
};

LoadGen::LoadGen(const Inputs& inputs, LoadgenOptions options)
    : options_(options) {
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  for (const SwitchInputs& sw : inputs.switches) {
    auto conn = std::make_unique<Conn>();
    conn->in = &sw;
    conns_.push_back(std::move(conn));
  }
}

LoadGen::~LoadGen() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (epollFd_ >= 0) ::close(epollFd_);
}

void LoadGen::fatal(const std::string& what) {
  if (error_.empty()) error_ = what;
}

void LoadGen::sendFrame(Conn& conn, const std::vector<std::uint8_t>& frame) {
  if (capturing_ && txBytes_.size() + frame.size() <= kCaptureLimit) {
    txBytes_.insert(txBytes_.end(), frame.begin(), frame.end());
  }
  conn.tx.insert(conn.tx.end(), frame.begin(), frame.end());
  flush(conn);
}

void LoadGen::flush(Conn& conn) {
  std::size_t offset = 0;
  while (offset < conn.tx.size()) {
    ssize_t n = ::send(conn.fd, conn.tx.data() + offset,
                       conn.tx.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fatal(std::string("send: ") + std::strerror(errno));
    break;
  }
  conn.tx.erase(conn.tx.begin(),
                conn.tx.begin() + static_cast<std::ptrdiff_t>(offset));
  bool wantOut = !conn.tx.empty();
  if (wantOut != conn.txArmed) {
    conn.txArmed = wantOut;
    epoll_event event{};
    event.events = EPOLLIN | (wantOut ? EPOLLOUT : 0u);
    event.data.ptr = &conn;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &event);
  }
}

bool LoadGen::connect(std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (auto& conn : conns_) {
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0 ||
        ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = conn.get();
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, conn->fd, &event);
    sendFrame(*conn, wire::encodeHello(1));
  }
  std::int64_t deadline = nowNs() + 10'000'000'000;
  while (error_.empty() && nowNs() < deadline) {
    bool all = std::all_of(conns_.begin(), conns_.end(),
                           [](const auto& c) { return c->handshaked; });
    if (all) return true;
    poll(10, nullptr);
  }
  *error = error_.empty() ? "handshake timed out" : error_;
  return false;
}

void LoadGen::sendAnnouncement(Conn& conn) {
  const HostSpec& host = conn.announceHost(conn.announceNext++);
  of::PacketIn packetIn;
  packetIn.inPort = host.port;
  packetIn.packet = of::Packet::makeArpRequest(
      host.mac, host.ip, of::Ipv4Address(10, 255, 255, 254));
  conn.announcing.insert(host.mac.toUint64());
  sendFrame(conn, wire::encodePacketIn(packetIn));
}

bool LoadGen::announce(std::string* error) {
  for (auto& conn : conns_) {
    while (conn->announceNext < conn->announceTotal() &&
           conn->announcing.size() < kAnnounceWindow) {
      sendAnnouncement(*conn);
    }
  }
  std::int64_t deadline = nowNs() + 60'000'000'000;
  while (error_.empty() && nowNs() < deadline) {
    bool all = std::all_of(conns_.begin(), conns_.end(), [](const auto& c) {
      return c->announced == c->announceTotal();
    });
    if (all) return true;
    poll(10, nullptr);
  }
  *error = error_.empty() ? "host announcements timed out" : error_;
  return false;
}

void LoadGen::sendProbe(Conn& conn, PhaseResult* result) {
  const SwitchInputs& sw = *conn.in;
  const ProbeTarget& target = sw.cycle[conn.cursor++ % sw.cycle.size()];
  const HostSpec& host =
      target.announced ? sw.announced[target.index] : sw.unannounced[target.index];
  ProbeSpec spec;
  spec.tag = nextTag_++;
  spec.announced = target.announced;
  spec.dst = host.mac;
  spec.outPort = host.port;
  spec.inPort = sw.source.port;
  spec.packet = of::Packet::makeTcp(sw.source.mac, host.mac, sw.source.ip,
                                    host.ip, sw.sourceTcpPort, 80,
                                    of::tcpflags::kSyn);
  spec.packet.tcp->seq = spec.tag;
  of::PacketIn packetIn;
  packetIn.inPort = sw.source.port;
  packetIn.packet = spec.packet;
  std::vector<std::uint8_t> frame = wire::encodePacketIn(packetIn);
  spec.sentNs = nowNs();
  if (options_.spans != nullptr) {
    if (ProbeSpans* spans = options_.spans->slot(spec.tag)) {
      spans->sent = spec.sentNs;
    }
  }
  conn.oracle.expect(std::move(spec));
  ++result->sent;
  sendFrame(conn, frame);
}

void LoadGen::record(Conn& conn, const Outcome& outcome, PhaseResult* result) {
  if (result == nullptr) {
    if (outcome.countsAsFailure()) fatal("answer outside a timed phase");
    return;
  }
  ProbeSpans* spans =
      options_.spans != nullptr ? options_.spans->slot(outcome.tag) : nullptr;
  bool closed = false;
  switch (outcome.kind) {
    case Outcome::Kind::kProgress:
      break;
    case Outcome::Kind::kAnswered:
      closed = true;
      ++result->answered;
      if (outcome.packetOutNs <= result->endNs) ++result->answeredByDeadline;
      if (outcome.flowModNs == 0) ++result->floods;
      result->answers.push_back(
          {outcome.sentNs, outcome.packetOutNs, outcome.latencyNs});
      if (spans != nullptr) {
        spans->flowModRead = outcome.flowModNs;
        spans->packetOutRead = outcome.packetOutNs;
      }
      break;
    case Outcome::Kind::kFailed:
      closed = true;
      ++result->failedProbes;
      ++result->failures[outcome.failure];
      break;
    case Outcome::Kind::kStray:
      ++result->failures[outcome.failure];
      if (outcome.failure == Failure::kLate) {
        ++result->lateAnswers;
      } else {
        ++result->strayFailures;
      }
      break;
  }
  if (closed && sending_) sendProbe(conn, result);
}

void LoadGen::onReadable(Conn& conn, PhaseResult* result) {
  std::uint8_t chunk[64 * 1024];
  bool closed = false;
  while (true) {
    ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.framer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) closed = true;
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  std::int64_t now = nowNs();
  sdnshield::net::Framer::Frame frame;
  while (true) {
    auto status = conn.framer.next(frame);
    if (status == sdnshield::net::Framer::Status::kNeedMore) break;
    if (status == sdnshield::net::Framer::Status::kCorrupt) {
      fatal("framing: " + conn.framer.error());
      return;
    }
    wire::Message message;
    try {
      message = wire::decode(frame.data, frame.size);
    } catch (const wire::DecodeError& decodeError) {
      fatal(decodeError.what());
      return;
    }
    if (const auto* features = std::get_if<wire::FeaturesRequest>(&message)) {
      wire::FeaturesReply reply;
      reply.xid = features->xid;
      reply.dpid = conn.in->dpid;
      sendFrame(conn, wire::encodeFeaturesReply(reply));
      conn.handshaked = true;
    } else if (const auto* echo = std::get_if<wire::Echo>(&message)) {
      if (!echo->isReply) {
        sendFrame(conn, wire::encodeEcho({true, echo->xid, echo->payload}));
      }
    } else if (const auto* stats = std::get_if<of::StatsRequest>(&message)) {
      of::StatsReply reply;
      reply.level = stats->level;
      sendFrame(conn, wire::encodeStatsReply(
                          reply, wire::transactionId(frame.data, frame.size)));
    } else if (const auto* mod = std::get_if<of::FlowMod>(&message)) {
      if (capturing_ && flowMods_.size() < kFlowModCaptureLimit) {
        flowMods_.push_back({conn.in->dpid, *mod});
      }
      Outcome outcome = conn.oracle.onFlowMod(*mod, now);
      if (outcome.kind == Outcome::Kind::kProgress && options_.spans) {
        if (ProbeSpans* spans = options_.spans->slot(outcome.tag)) {
          spans->flowModRead = now;
        }
      }
      record(conn, outcome, result);
    } else if (const auto* out = std::get_if<of::PacketOut>(&message)) {
      if (out->packet.arp) {
        // Announcement answer: the L2 app floods the broadcast ARP.
        bool flood = out->actions.size() == 1 &&
                     std::get_if<of::OutputAction>(&out->actions.front()) &&
                     std::get<of::OutputAction>(out->actions.front()).port ==
                         of::ports::kFlood;
        if (!flood || conn.announcing.erase(out->packet.eth.src.toUint64()) == 0) {
          fatal("unexpected answer to a host announcement");
          return;
        }
        ++conn.announced;
        if (conn.announceNext < conn.announceTotal()) sendAnnouncement(conn);
      } else {
        record(conn, conn.oracle.onPacketOut(*out, now), result);
      }
    } else if (!std::holds_alternative<wire::Hello>(message)) {
      Outcome stray;
      stray.kind = Outcome::Kind::kStray;
      stray.failure = Failure::kStray;
      record(conn, stray, result);
    }
  }
  if (closed) fatal("server closed a switch connection");
}

void LoadGen::poll(int timeoutMs, PhaseResult* result) {
  epoll_event events[16];
  int n = ::epoll_wait(epollFd_, events, 16, timeoutMs);
  for (int i = 0; i < n; ++i) {
    Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
    if (events[i].events & EPOLLOUT) flush(conn);
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      onReadable(conn, result);
    }
  }
}

PhaseResult LoadGen::run(std::int64_t durationNs) {
  PhaseResult result;
  capturing_ = options_.spans != nullptr;
  sending_ = true;
  result.startNs = nowNs();
  result.endNs = result.startNs + durationNs;
  for (auto& conn : conns_) {
    for (std::size_t w = 0; w < options_.window; ++w) sendProbe(*conn, &result);
  }
  auto expireAll = [&](std::int64_t timeoutNs) {
    std::int64_t now = nowNs();
    for (auto& conn : conns_) {
      for (const Outcome& outcome : conn->oracle.expire(now, timeoutNs)) {
        record(*conn, outcome, &result);
      }
    }
  };
  std::int64_t nextExpiry = result.startNs + 10'000'000;
  while (error_.empty()) {
    std::int64_t now = nowNs();
    if (now >= result.endNs) break;
    int waitMs = static_cast<int>(
        std::clamp<std::int64_t>((result.endNs - now) / 1'000'000, 0, 10));
    poll(waitMs, &result);
    if (nowNs() >= nextExpiry) {
      expireAll(kProbeTimeoutNs);
      nextExpiry = nowNs() + 10'000'000;
    }
  }
  // Drain: no new probes; every open probe gets its answer or times out.
  sending_ = false;
  std::int64_t drainDeadline = nowNs() + kProbeTimeoutNs + 100'000'000;
  while (error_.empty() && nowNs() < drainDeadline) {
    bool open = std::any_of(conns_.begin(), conns_.end(),
                            [](const auto& c) { return c->oracle.open() > 0; });
    if (!open) break;
    poll(10, &result);
    expireAll(kProbeTimeoutNs);
  }
  expireAll(-1);
  capturing_ = false;
  return result;
}

}  // namespace perfbench
