// TCP frame server for the serving tier. Accepts connections, reassembles
// wire frames (src/net/wire.h) off the byte stream, and dispatches them to
// a WireService. The server runs a single epoll event loop over
// nonblocking sockets (Linux only). Replies may be sent from ANY thread
// (the shard's batcher settles requests long after the read that admitted
// them), so each connection carries its own write lock.
//
// Corrupt input is answered, not ignored: recoverable corruption (CRC
// mismatch, unknown type, short payload, version mismatch) earns a
// kRejectedInvalid reply and the stream continues; unrecoverable corruption
// (bad magic, oversized length) earns the same reply followed by
// connection close.
#ifndef MODELSLICING_NET_NET_SERVER_H_
#define MODELSLICING_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/util/status.h"

namespace ms {
namespace net {

/// \brief What a NetServer serves. Implemented by the shard frontend and
/// the router.
class WireService {
 public:
  virtual ~WireService() = default;

  /// Handles one kRequest frame. `reply` is thread-safe, may be invoked
  /// from any thread (immediately or once the request settles), and must
  /// be invoked exactly once; it is a no-op if the connection died first.
  virtual void OnRequest(const RequestMsg& msg,
                         std::function<void(const ReplyMsg&)> reply) = 0;

  /// Handles one kStats frame: returns the kStatsReply payload
  /// (EncodeStats of the current stats snapshot).
  virtual std::string OnStats() = 0;
};

class NetServer {
 public:
  struct Options {
    /// Honor kControl chaos-control frames (arm/disarm the process-local
    /// fault registry over the wire). Off by default: only bench/CI
    /// harnesses opt in (--chaos_control); a production server answers
    /// kControl with kRejectedInvalid like any other bad frame.
    bool allow_fault_control = false;
  };

  explicit NetServer(WireService* service);
  NetServer(WireService* service, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds `port` (0 = ephemeral) and starts the event loop.
  Status Start(uint16_t port);

  /// Stops accepting, closes every connection, joins the loop. Stop the
  /// backing SliceServer FIRST so in-flight requests settle and flush
  /// their terminal replies before the sockets go away.
  void Stop();

  uint16_t port() const { return port_; }
  int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Live connection count (slow-loris tests assert no leaks).
  size_t open_connections() const {
    std::lock_guard<std::mutex> lock(conns_mu_);
    return conns_.size();
  }

 private:
  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}
    Socket sock;
    FrameDecoder decoder;
    std::mutex write_mu;
    /// Set under write_mu when the peer is gone; late replies become
    /// no-ops. The fd itself is closed by whichever side owns teardown
    /// (the epoll loop), never by a reply writer.
    bool closed = false;
  };

  /// Thread-safe framed write; marks the conn closed on send failure.
  void SendFrame(const std::shared_ptr<Conn>& conn, const std::string& frame);
  /// Dispatches one reassembled frame; returns false when the connection
  /// must be torn down (fatal stream corruption).
  bool HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Runs the decoder over freshly read bytes; returns false on fatal.
  bool HandleBytes(const std::shared_ptr<Conn>& conn, const char* data,
                   size_t n);
  /// Marks closed + shuts down the socket so the read side unblocks.
  void MarkClosed(const std::shared_ptr<Conn>& conn);

  void EpollLoop();
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd poked by Stop().

  WireService* service_;
  Options options_;
  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread loop_;

  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  std::atomic<int64_t> connections_accepted_{0};
};

}  // namespace net
}  // namespace ms

#endif  // MODELSLICING_NET_NET_SERVER_H_
