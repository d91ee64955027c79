// Wire protocol for out-of-process shards. One bfc-shard-host process owns
// one LocalShard and serves it over a Unix-domain SOCK_STREAM socket; the
// RemoteShard client (remote.hpp) speaks this protocol from the service
// side. Framing is deliberately minimal:
//
//   frame   := u32 length (LE) · u8 msg · payload[length-1]
//   payload := little-endian PODs and length-prefixed byte strings; graph
//              payloads reuse the BFC2 binary serializer (graph/io_binary)
//              so a pinned snapshot crosses the socket in exactly the
//              checkpoint format, CRCs included.
//
// Requests carry one message each and every request gets exactly one reply
// (kReply on success, kError with a message string on failure), so a
// request/reply pair is self-delimiting and a client can run one RPC per
// connection — which is what RemoteShard does: connection state never
// outlives a call, and a crashed host fails the *call*, not the client.
//
// Client-side legs honour the transport fault points (svc/fault.hpp):
// kTransportDrop fails a leg as if the peer vanished, kTransportDelay
// stalls param() ms before the receive — long enough values trip the
// per-leg timeout deterministically. Both compile to constant-false in
// release builds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "util/common.hpp"

namespace bfc::shard {

class ShardHandle;

/// A cross-process shard leg failed: connect refused, peer EOF mid-frame,
/// per-leg timeout, or the circuit breaker refusing to issue the call.
/// Query paths treat this like a degrade trigger, never a hard error.
class ShardUnavailableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The timed-out flavour, split out so the client can count
/// svc.remote.timeouts separately from connection-refused/EOF failures.
class ShardTimeoutError : public ShardUnavailableError {
 public:
  using ShardUnavailableError::ShardUnavailableError;
};

namespace wire {

enum class Msg : std::uint8_t {
  kPing = 0,      // -> id, range, epoch (health probe + handshake check)
  kEpoch,         // -> epoch
  kPin,           // -> epoch, butterflies, edges, BFC2 graph blob
  kApply,         // batch -> PublishResult
  kPersist,       // path -> ack
  kRestore,       // path -> epoch
  kReply = 200,   // success reply
  kError = 201,   // failure reply, payload = message string
};

struct Frame {
  Msg msg = Msg::kError;
  std::string payload;
};

/// Little-endian POD/string appender for payloads.
class Payload {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s);
  [[nodiscard]] std::string take() && { return std::move(buf_); }
  [[nodiscard]] const std::string& view() const noexcept { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked reader; throws ShardUnavailableError on a short or
/// malformed payload (a protocol error is indistinguishable from a broken
/// peer as far as the caller's retry policy is concerned).
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}
  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] std::string str();
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Blocking send of one frame; throws ShardUnavailableError on any short
/// write or peer reset.
void send_frame(int fd, Msg msg, std::string_view payload);

/// Receives one frame. timeout_ms < 0 blocks indefinitely; otherwise the
/// whole frame must arrive within the budget or ShardUnavailableError is
/// thrown. A clean EOF before any byte returns std::nullopt semantics via
/// Frame{kError, ""} — callers that care use recv_frame_or_eof.
[[nodiscard]] Frame recv_frame(int fd, int timeout_ms);

/// Like recv_frame but a clean EOF before the first byte returns false
/// (server idle loop: peer hung up between requests).
[[nodiscard]] bool recv_frame_or_eof(int fd, int timeout_ms, Frame& out);

// Payload codecs shared by client and host.
[[nodiscard]] std::string encode_snapshot(const svc::GraphSnapshot& snap);
/// The lineage is not on the wire: it numbers epoch sequences within one
/// process, so the receiving side stamps its own.
[[nodiscard]] svc::SnapshotPtr decode_snapshot(std::string_view payload,
                                               std::uint64_t lineage);
[[nodiscard]] std::string encode_batch(
    std::span<const svc::EdgeUpdate> batch);
[[nodiscard]] std::vector<svc::EdgeUpdate> decode_batch(
    std::string_view payload);
[[nodiscard]] std::string encode_publish(const svc::PublishResult& r);
[[nodiscard]] svc::PublishResult decode_publish(std::string_view payload);

}  // namespace wire

/// Creates, binds and listens on a Unix-domain socket at `path` (unlinking
/// any stale file first). Throws std::runtime_error on failure.
[[nodiscard]] int listen_unix(const std::string& path);

/// Connects to a Unix-domain socket with a connect timeout. Throws
/// ShardUnavailableError when the host is absent or slow to accept.
[[nodiscard]] int connect_unix(const std::string& path, int timeout_ms);

/// One client RPC: connect, send `msg`, await the reply within
/// `timeout_ms`, close. Throws ShardUnavailableError on any transport
/// failure (including an armed kTransportDrop / timed-out kTransportDelay)
/// and std::runtime_error when the host replied kError (the host-side
/// exception message — a *semantic* failure, not an availability one).
[[nodiscard]] std::string call_host(const std::string& socket_path,
                                    wire::Msg msg, std::string_view payload,
                                    int timeout_ms);

/// Serves framed requests on a connected fd until the peer closes or goes
/// idle past `idle_timeout_ms`. Every request is answered (kReply/kError);
/// host-side exceptions become kError replies, they never kill the server
/// loop. Used by bfc-shard-host and by in-process protocol tests.
void serve_connection(int fd, ShardHandle& shard, int idle_timeout_ms);

}  // namespace bfc::shard
