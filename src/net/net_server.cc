#include "src/net/net_server.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/epoll.h>
#include <sys/eventfd.h>

#include "src/obs/metrics.h"
#include "src/util/fault.h"

namespace ms {
namespace net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
/// Reply writers (batcher threads) give a stuck peer this long before
/// declaring the connection dead; tiny frames make real backpressure rare.
constexpr double kSendTimeoutSeconds = 10.0;

obs::Counter* NetCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

uint64_t SalvageId(const std::string& payload) {
  if (payload.size() < sizeof(uint64_t)) return 0;
  uint64_t id = 0;
  std::memcpy(&id, payload.data(), sizeof(id));
  return id;
}

std::string InvalidReplyFrame(uint64_t id) {
  ReplyMsg reply;
  reply.id = id;
  reply.admit = AdmitResult::kRejectedInvalid;
  return EncodeReply(reply);
}

}  // namespace

NetServer::NetServer(WireService* service) : service_(service) {}

NetServer::NetServer(WireService* service, Options options)
    : service_(service), options_(options) {}

NetServer::~NetServer() { Stop(); }

void NetServer::SendFrame(const std::shared_ptr<Conn>& conn,
                          const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed) return;
  Status st = SendFrameBytes(conn->sock.fd(), frame.data(), frame.size(),
                             kSendTimeoutSeconds);
  if (!st.ok()) {
    // Peer gone (or wedged past the timeout). Shut down the read side so
    // the event loop / reader thread notices and owns the actual close.
    conn->closed = true;
    ::shutdown(conn->sock.fd(), SHUT_RDWR);
    NetCounter("ms_net_send_errors_total")->Inc();
    return;
  }
  NetCounter("ms_net_frames_out_total")->Inc();
}

bool NetServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                            const Frame& frame) {
  NetCounter("ms_net_frames_in_total")->Inc();
  switch (frame.type) {
    case FrameType::kRequest: {
      RequestMsg msg;
      Status st = DecodeRequest(frame.payload, &msg);
      if (!st.ok()) {
        NetCounter("ms_net_bad_frames_total")->Inc();
        SendFrame(conn, InvalidReplyFrame(SalvageId(frame.payload)));
        return true;
      }
      // net.recv.blackhole: the frame arrived intact but is never
      // dispatched — the caller sees silence, exactly as if the network
      // ate the bytes. The sender's timeout/retry layer must recover.
      if (fault::Registry::Global().ShouldFire(fault::kNetRecvBlackhole)) {
        return true;
      }
      std::shared_ptr<Conn> conn_ref = conn;
      NetServer* self = this;
      service_->OnRequest(msg, [self, conn_ref](const ReplyMsg& reply) {
        self->SendFrame(conn_ref, EncodeReply(reply));
      });
      return true;
    }
    case FrameType::kStats: {
      // OnStats returns a complete kStatsReply frame (EncodeStats frames
      // its own payload); forward it verbatim.
      SendFrame(conn, service_->OnStats());
      return true;
    }
    case FrameType::kControl: {
      ControlMsg msg;
      Status st = DecodeControl(frame.payload, &msg);
      if (!st.ok() || !options_.allow_fault_control) {
        NetCounter("ms_net_bad_frames_total")->Inc();
        SendFrame(conn, InvalidReplyFrame(SalvageId(frame.payload)));
        return true;
      }
      fault::Registry& faults = fault::Registry::Global();
      if (msg.op == ControlOp::kDisarmFaults) {
        faults.DisarmAll();
      } else {
        faults.SetSeed(msg.seed);
        st = faults.ArmFromSpec(msg.spec);
      }
      ReplyMsg ack;
      ack.id = msg.id;
      ack.admit =
          st.ok() ? AdmitResult::kAccepted : AdmitResult::kRejectedInvalid;
      SendFrame(conn, EncodeReply(ack));
      return true;
    }
    case FrameType::kReply:
    case FrameType::kStatsReply:
      // Valid frame types, wrong direction: a server never receives
      // replies. Same treatment as any other malformed request.
      NetCounter("ms_net_bad_frames_total")->Inc();
      SendFrame(conn, InvalidReplyFrame(SalvageId(frame.payload)));
      return true;
  }
  NetCounter("ms_net_bad_frames_total")->Inc();
  SendFrame(conn, InvalidReplyFrame(0));
  return true;
}

bool NetServer::HandleBytes(const std::shared_ptr<Conn>& conn,
                            const char* data, size_t n) {
  conn->decoder.Feed(data, n);
  Frame frame;
  for (;;) {
    switch (conn->decoder.Next(&frame)) {
      case DecodeResult::kFrame:
        if (!HandleFrame(conn, frame)) return false;
        break;
      case DecodeResult::kNeedMore:
        return true;
      case DecodeResult::kBadFrame:
        NetCounter("ms_net_bad_frames_total")->Inc();
        SendFrame(conn, InvalidReplyFrame(conn->decoder.bad_request_id()));
        break;
      case DecodeResult::kFatal:
        NetCounter("ms_net_fatal_frames_total")->Inc();
        SendFrame(conn, InvalidReplyFrame(0));
        return false;
    }
  }
}

void NetServer::MarkClosed(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed) return;
  conn->closed = true;
  ::shutdown(conn->sock.fd(), SHUT_RDWR);
}

Status NetServer::Start(uint16_t port) {
  if (running_.load()) return Status::FailedPrecondition("already started");
  auto listener = TcpListen(port, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = listener.MoveValueOrDie();
  MS_RETURN_NOT_OK(SetNonBlocking(listener_.fd(), true));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::Internal("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal("eventfd failed");
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  loop_ = std::thread(&NetServer::EpollLoop, this);
  return Status::OK();
}

void NetServer::EpollLoop() {
  std::vector<char> buf(kReadChunk);
  epoll_event events[64];
  auto close_conn = [this](int fd) {
    std::shared_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      auto it = conns_.find(fd);
      if (it == conns_.end()) return;
      conn = it->second;
      conns_.erase(it);
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    // Lock out in-flight reply writers before the fd number can be reused.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->closed = true;
    conn->sock.Close();
  };

  while (running_.load(std::memory_order_relaxed)) {
    int n = ::epoll_wait(epoll_fd_, events, 64, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listener_.fd()) {
        for (;;) {
          Socket s = TcpAccept(listener_.fd());
          if (!s.valid()) break;
          if (!SetNonBlocking(s.fd(), true).ok()) continue;
          const int cfd = s.fd();
          auto conn = std::make_shared<Conn>(std::move(s));
          {
            std::lock_guard<std::mutex> lock(conns_mu_);
            conns_[cfd] = conn;
          }
          epoll_event cev;
          std::memset(&cev, 0, sizeof(cev));
          cev.events = EPOLLIN | EPOLLRDHUP;
          cev.data.fd = cfd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &cev);
          connections_accepted_.fetch_add(1, std::memory_order_relaxed);
          NetCounter("ms_net_connections_total")->Inc();
        }
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (!conn) continue;
      bool dead = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      while (!dead) {
        ssize_t r = ::recv(fd, buf.data(), buf.size(), 0);
        if (r > 0) {
          if (!HandleBytes(conn, buf.data(), static_cast<size_t>(r))) {
            dead = true;
          }
          continue;
        }
        if (r == 0) {
          dead = true;
        } else if (errno == EINTR) {
          continue;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          dead = true;
        }
        break;
      }
      if (dead || (events[i].events & EPOLLRDHUP) != 0) close_conn(fd);
    }
  }

  // Teardown: close every remaining connection.
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& kv : conns_) fds.push_back(kv.first);
  }
  for (int fd : fds) close_conn(fd);
}

void NetServer::Stop() {
  if (!running_.exchange(false)) return;
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
  if (loop_.joinable()) loop_.join();
  listener_.Close();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

}  // namespace net
}  // namespace ms
