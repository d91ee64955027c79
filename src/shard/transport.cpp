#include "shard/transport.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "graph/io_binary.hpp"
#include "shard/shard.hpp"
#include "svc/fault.hpp"

namespace bfc::shard {

namespace wire {

namespace {

constexpr std::size_t kMaxFrame = std::size_t{1} << 30;

[[noreturn]] void unavailable(const std::string& what) {
  throw ShardUnavailableError("shard transport: " + what);
}

[[noreturn]] void timed_out(const std::string& what) {
  throw ShardTimeoutError("shard transport: " + what);
}

// Full write with EINTR handling; throws on peer reset / short write.
void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      unavailable(std::string("send failed: ") + std::strerror(errno));
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Reads exactly len bytes before the deadline. Returns false on a clean
// EOF at offset 0 when eof_ok; throws on mid-frame EOF, error or timeout.
bool read_all(int fd, char* data, std::size_t len,
              std::chrono::steady_clock::time_point deadline, bool has_deadline,
              bool eof_ok) {
  std::size_t got = 0;
  while (got < len) {
    if (has_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      const int wait_ms =
          left.count() > 0 ? static_cast<int>(left.count()) : 0;
      pollfd pfd{fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, wait_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        unavailable(std::string("poll failed: ") + std::strerror(errno));
      }
      if (pr == 0) timed_out("receive timed out");
    }
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      unavailable(std::string("recv failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      unavailable("peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

}  // namespace

void Payload::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Payload::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

std::uint8_t Cursor::u8() {
  if (pos_ + 1 > data_.size()) unavailable("short payload");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint64_t Cursor::u64() {
  if (pos_ + 8 > data_.size()) unavailable("short payload");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(
                                                        i)]))
         << (8 * i);
  pos_ += 8;
  return v;
}

std::string Cursor::str() {
  const std::uint64_t len = u64();
  if (len > data_.size() - pos_) unavailable("short payload");
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

void send_frame(int fd, Msg msg, std::string_view payload) {
  if (payload.size() + 1 > kMaxFrame) unavailable("frame too large");
  std::string buf;
  buf.reserve(payload.size() + 5);
  put_u32(buf, static_cast<std::uint32_t>(payload.size() + 1));
  buf.push_back(static_cast<char>(msg));
  buf.append(payload.data(), payload.size());
  write_all(fd, buf.data(), buf.size());
}

bool recv_frame_or_eof(int fd, int timeout_ms, Frame& out) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(has_deadline ? timeout_ms
                                                               : 0);
  char head[4];
  if (!read_all(fd, head, 4, deadline, has_deadline, /*eof_ok=*/true))
    return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(head[i]))
           << (8 * i);
  if (len == 0 || len > kMaxFrame) unavailable("bad frame length");
  std::string body(len, '\0');
  (void)read_all(fd, body.data(), len, deadline, has_deadline,
                 /*eof_ok=*/false);
  out.msg = static_cast<Msg>(static_cast<std::uint8_t>(body[0]));
  out.payload = body.substr(1);
  return true;
}

Frame recv_frame(int fd, int timeout_ms) {
  Frame f;
  if (!recv_frame_or_eof(fd, timeout_ms, f))
    unavailable("peer closed before reply");
  return f;
}

std::string encode_snapshot(const svc::GraphSnapshot& snap) {
  Payload p;
  p.u64(snap.epoch);
  p.i64(snap.butterflies);
  p.i64(snap.edges);
  std::ostringstream blob(std::ios::binary);
  graph::write_binary(blob, snap.graph);
  p.str(blob.str());
  return std::move(p).take();
}

svc::SnapshotPtr decode_snapshot(std::string_view payload,
                                 std::uint64_t lineage) {
  Cursor c(payload);
  auto snap = std::make_shared<svc::GraphSnapshot>();
  snap->epoch = c.u64();
  snap->lineage = lineage;
  snap->butterflies = c.i64();
  snap->edges = static_cast<offset_t>(c.i64());
  std::istringstream blob(c.str(), std::ios::binary);
  snap->graph = graph::read_binary(blob, "<shard transport>");
  // The tips and the top-pair buffer are not on the wire: one pass each on
  // the received graph, rather than numbers taken from the host on trust.
  snap->tips_v1 = count::butterflies_per_v1(snap->graph);
  snap->tips_v2 = count::butterflies_per_v2(snap->graph);
  snap->top_pairs = count::TopPairBuffer::of(snap->graph);
  return snap;
}

std::string encode_batch(std::span<const svc::EdgeUpdate> batch) {
  Payload p;
  p.u64(batch.size());
  for (const svc::EdgeUpdate& up : batch) {
    p.u64(static_cast<std::uint64_t>(up.u));
    p.u64(static_cast<std::uint64_t>(up.v));
    p.u8(up.insert ? 1 : 0);
  }
  return std::move(p).take();
}

std::vector<svc::EdgeUpdate> decode_batch(std::string_view payload) {
  Cursor c(payload);
  const std::uint64_t n = c.u64();
  if (n > payload.size()) unavailable("bad batch length");
  std::vector<svc::EdgeUpdate> batch;
  batch.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    svc::EdgeUpdate up;
    up.u = static_cast<vidx_t>(c.u64());
    up.v = static_cast<vidx_t>(c.u64());
    up.insert = c.u8() != 0;
    batch.push_back(up);
  }
  return batch;
}

std::string encode_publish(const svc::PublishResult& r) {
  Payload p;
  p.u64(r.epoch);
  p.i64(r.applied);
  p.i64(r.ignored);
  p.i64(r.created);
  p.i64(r.destroyed);
  return std::move(p).take();
}

svc::PublishResult decode_publish(std::string_view payload) {
  Cursor c(payload);
  svc::PublishResult r;
  r.epoch = c.u64();
  r.applied = static_cast<offset_t>(c.i64());
  r.ignored = static_cast<offset_t>(c.i64());
  r.created = c.i64();
  r.destroyed = c.i64();
  return r;
}

}  // namespace wire

int listen_unix(const std::string& path) {
  require(path.size() < sizeof(sockaddr_un{}.sun_path),
          "socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  require(fd >= 0, std::string("socket() failed: ") + std::strerror(errno));
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    require(false, "bind(" + path + ") failed: " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    require(false, "listen(" + path + ") failed: " + std::strerror(err));
  }
  return fd;
}

int connect_unix(const std::string& path, int timeout_ms) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw ShardUnavailableError("socket path too long: " + path);
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0)
    throw ShardUnavailableError(std::string("socket() failed: ") +
                                std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr <= 0) {
      ::close(fd);
      throw ShardTimeoutError("connect(" + path + ") timed out");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    rc = soerr == 0 ? 0 : -1;
    errno = soerr;
  }
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    throw ShardUnavailableError("connect(" + path +
                                ") failed: " + std::strerror(err));
  }
  // Back to blocking; frame IO paces itself with poll().
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

std::string call_host(const std::string& socket_path, wire::Msg msg,
                      std::string_view payload, int timeout_ms) {
  if (svc::fault::fires(svc::fault::Point::kTransportDrop))
    throw ShardUnavailableError("injected transport drop");
  int budget_ms = timeout_ms;
  if (svc::fault::fires(svc::fault::Point::kTransportDelay)) {
    const auto stall = static_cast<int>(
        svc::fault::param(svc::fault::Point::kTransportDelay));
    std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    budget_ms -= stall;
    if (budget_ms <= 0)
      throw ShardTimeoutError("injected transport delay past deadline");
  }
  // One deadline for the whole call: the connect leg gets the full budget,
  // the recv leg only what's left of it, so a slow connect cannot stretch
  // the RPC to ~2x timeout_ms.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  int fd = connect_unix(socket_path, budget_ms);
  std::string reply;
  try {
    wire::send_frame(fd, msg, payload);
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int recv_ms = left.count() > 0 ? static_cast<int>(left.count()) : 0;
    const wire::Frame f = wire::recv_frame(fd, recv_ms);
    ::close(fd);
    fd = -1;  // the kError/bad-kind throws below must not close again
    if (f.msg == wire::Msg::kError)
      throw std::runtime_error("shard host error: " + f.payload);
    if (f.msg != wire::Msg::kReply)
      throw ShardUnavailableError("unexpected reply kind");
    reply = f.payload;
  } catch (...) {
    if (fd >= 0) ::close(fd);
    throw;
  }
  return reply;
}

namespace {

// Answers one request against the host's shard: its identity, its epoch,
// a pinned snapshot, a publish or a checkpoint. Queries are answered
// client-side, from pinned snapshots.
wire::Frame handle_request(const wire::Frame& req, ShardHandle& shard) {
  using wire::Msg;
  wire::Payload out;
  switch (req.msg) {
    case Msg::kPing: {
      out.u64(static_cast<std::uint64_t>(shard.id()));
      out.u64(static_cast<std::uint64_t>(shard.range_begin()));
      out.u64(static_cast<std::uint64_t>(shard.range_end()));
      out.u64(shard.epoch());
      break;
    }
    case Msg::kEpoch: {
      out.u64(shard.epoch());
      break;
    }
    case Msg::kPin: {
      const svc::SnapshotPtr snap = shard.pin();
      return {Msg::kReply, wire::encode_snapshot(*snap)};
    }
    case Msg::kApply: {
      const std::vector<svc::EdgeUpdate> batch =
          wire::decode_batch(req.payload);
      const svc::PublishResult r = shard.apply(batch);
      return {Msg::kReply, wire::encode_publish(r)};
    }
    case Msg::kPersist: {
      wire::Cursor c(req.payload);
      shard.persist(c.str());
      break;
    }
    case Msg::kRestore: {
      wire::Cursor c(req.payload);
      shard.restore(c.str());
      out.u64(shard.epoch());
      break;
    }
    default:
      return {Msg::kError, "unknown request kind"};
  }
  return {Msg::kReply, std::move(out).take()};
}

}  // namespace

void serve_connection(int fd, ShardHandle& shard, int idle_timeout_ms) {
  wire::Frame req;
  for (;;) {
    try {
      if (!wire::recv_frame_or_eof(fd, idle_timeout_ms, req)) return;
    } catch (const ShardUnavailableError&) {
      return;  // idle timeout / torn frame: drop the connection
    }
    // Simulated host crash: die before replying, exactly like a SIGKILL
    // between request and response (checked builds only; the host binary
    // arms this from --crash-at).
    if (svc::fault::fires(svc::fault::Point::kShardHostCrash)) ::_exit(137);
    wire::Frame reply;
    try {
      reply = handle_request(req, shard);
    } catch (const std::exception& e) {
      reply = {wire::Msg::kError, e.what()};
    }
    try {
      wire::send_frame(fd, reply.msg, reply.payload);
    } catch (const ShardUnavailableError&) {
      return;  // peer gone mid-reply; nothing to salvage
    }
  }
}

}  // namespace bfc::shard
