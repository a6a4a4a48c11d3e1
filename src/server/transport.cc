#include "server/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace dmx::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left before `deadline`; `has_deadline` false => -1 (poll's
/// "block forever").
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - Clock::now())
                  .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IOError() << "fcntl(O_NONBLOCK): " << std::strerror(errno);
  }
  return Status::OK();
}

/// \brief Transport over a connected (non-blocking) TCP socket. Close()
/// only shuts the socket down, which wakes a blocked poll on either side;
/// the fd is released by the destructor, so a Close from another thread
/// never races a Read or Write into a reused descriptor.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(int fd) : fd_(fd) {}
  ~TcpTransport() override { close(fd_); }

  Result<size_t> Read(char* buf, size_t n, int timeout_ms) override {
    const bool timed = timeout_ms > 0;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timed ? timeout_ms : 0);
    while (true) {
      ssize_t got = recv(fd_, buf, n, 0);
      if (got > 0) return static_cast<size_t>(got);
      if (got == 0) return size_t{0};  // Peer half-closed.
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return IOError() << "recv: " << std::strerror(errno);
      }
      struct pollfd pfd = {fd_, POLLIN, 0};
      int left = RemainingMs(timed, deadline);
      if (timed && left == 0) {
        return DeadlineExceeded() << "read timed out after " << timeout_ms
                                  << " ms";
      }
      int rc = poll(&pfd, 1, left);
      if (rc < 0 && errno != EINTR) {
        return IOError() << "poll(read): " << std::strerror(errno);
      }
      if (rc == 0 && timed) {
        return DeadlineExceeded() << "read timed out after " << timeout_ms
                                  << " ms";
      }
    }
  }

  Status Write(std::string_view data, int timeout_ms) override {
    const bool timed = timeout_ms > 0;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timed ? timeout_ms : 0);
    size_t off = 0;
    while (off < data.size()) {
      ssize_t sent =
          send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (sent > 0) {
        off += static_cast<size_t>(sent);
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        if (errno == EPIPE || errno == ECONNRESET) {
          return Unavailable() << "peer closed the connection";
        }
        return IOError() << "send: " << std::strerror(errno);
      }
      struct pollfd pfd = {fd_, POLLOUT, 0};
      int left = RemainingMs(timed, deadline);
      if (timed && left == 0) {
        return DeadlineExceeded()
               << "write stalled: peer accepted " << off << " of "
               << data.size() << " bytes within " << timeout_ms << " ms";
      }
      int rc = poll(&pfd, 1, left);
      if (rc < 0 && errno != EINTR) {
        return IOError() << "poll(write): " << std::strerror(errno);
      }
      if (rc == 0 && timed) {
        return DeadlineExceeded()
               << "write stalled: peer accepted " << off << " of "
               << data.size() << " bytes within " << timeout_ms << " ms";
      }
    }
    return Status::OK();
  }

  void ShutdownWrite() override { shutdown(fd_, SHUT_WR); }

  void Close() override { shutdown(fd_, SHUT_RDWR); }

 private:
  const int fd_;
};

}  // namespace

// --- TcpListener ---

TcpListener::~TcpListener() { close(fd_); }

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(
    const std::string& host, uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return IOError() << "socket: " << std::strerror(errno);
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string& bind_host = host.empty() ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return InvalidArgument() << "not an IPv4 address: " << bind_host;
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = IOError() << "bind " << bind_host << ":" << port << ": "
                              << std::strerror(errno);
    close(fd);
    return status;
  }
  if (listen(fd, 64) < 0) {
    Status status = IOError() << "listen: " << std::strerror(errno);
    close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    Status status = IOError() << "getsockname: " << std::strerror(errno);
    close(fd);
    return status;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

Result<std::unique_ptr<Transport>> TcpListener::Accept() {
  // A blocking accept: Close() shuts the listener down, which fails it
  // with EINVAL.
  int conn;
  while ((conn = accept(fd_, nullptr, nullptr)) < 0) {
    if (errno != EINTR) return IOError() << "accept: " << std::strerror(errno);
  }
  Status nb = SetNonBlocking(conn);
  if (!nb.ok()) {
    close(conn);
    return nb;
  }
  int one = 1;
  (void)setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(conn));
}

void TcpListener::Close() { shutdown(fd_, SHUT_RDWR); }

Result<std::unique_ptr<Transport>> ConnectTcp(const std::string& host,
                                              uint16_t port, int timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return IOError() << "socket: " << std::strerror(errno);
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    close(fd);
    return nb;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string& connect_host = host.empty() ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, connect_host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return InvalidArgument() << "not an IPv4 address: " << connect_host;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    Status status = Unavailable() << "connect " << connect_host << ":"
                                  << port << ": " << std::strerror(errno);
    close(fd);
    return status;
  }
  struct pollfd pfd = {fd, POLLOUT, 0};
  int rc = poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
  if (rc <= 0) {
    close(fd);
    if (rc == 0) {
      return DeadlineExceeded() << "connect " << connect_host << ":" << port
                                << " timed out after " << timeout_ms << " ms";
    }
    return IOError() << "poll(connect): " << std::strerror(errno);
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    close(fd);
    return Unavailable() << "connect " << connect_host << ":" << port << ": "
                         << std::strerror(err != 0 ? err : errno);
  }
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(fd));
}

// --- in-memory pipe ---

namespace {

/// One direction of the pipe: a bounded byte buffer with close flags at
/// both ends. Every state change (bytes in, bytes out, a close) notifies,
/// so a wait lasts until a notify or the call's deadline and no longer.
struct PipeChannel {
  explicit PipeChannel(size_t cap) : capacity(cap) {}

  Mutex mu{"server.pipe.mu"};
  CondVar cv;
  std::string buf DMX_GUARDED_BY(mu);
  const size_t capacity;
  bool writer_closed DMX_GUARDED_BY(mu) = false;
  bool reader_closed DMX_GUARDED_BY(mu) = false;

  Result<size_t> ReadFrom(char* out, size_t n, int timeout_ms) {
    const bool timed = timeout_ms > 0;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timed ? timeout_ms : 0);
    MutexLock lock(&mu);
    while (buf.empty()) {
      if (writer_closed) return size_t{0};  // Clean EOF.
      if (reader_closed) return InvalidState() << "read on closed transport";
      if (timed && RemainingMs(true, deadline) == 0) {
        return DeadlineExceeded() << "pipe read timed out after "
                                  << timeout_ms << " ms";
      }
      if (timed) {
        cv.WaitFor(&mu, std::chrono::milliseconds(RemainingMs(true, deadline)));
      } else {
        cv.Wait(&mu);
      }
    }
    size_t take = buf.size() < n ? buf.size() : n;
    std::memcpy(out, buf.data(), take);
    buf.erase(0, take);
    cv.NotifyAll();  // Space freed: wake a backpressured writer.
    return take;
  }

  Status WriteTo(std::string_view data, int timeout_ms) {
    const bool timed = timeout_ms > 0;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timed ? timeout_ms : 0);
    size_t off = 0;
    MutexLock lock(&mu);
    while (off < data.size()) {
      if (writer_closed) return InvalidState() << "write on closed transport";
      if (reader_closed) return Unavailable() << "peer closed the pipe";
      size_t space = capacity - buf.size();
      if (space == 0) {
        if (timed && RemainingMs(true, deadline) == 0) {
          return DeadlineExceeded()
                 << "pipe write stalled: peer accepted " << off << " of "
                 << data.size() << " bytes within " << timeout_ms << " ms";
        }
        if (timed) {
          cv.WaitFor(&mu,
                     std::chrono::milliseconds(RemainingMs(true, deadline)));
        } else {
          cv.Wait(&mu);
        }
        continue;
      }
      size_t chunk = data.size() - off < space ? data.size() - off : space;
      buf.append(data.data() + off, chunk);
      off += chunk;
      cv.NotifyAll();
    }
    return Status::OK();
  }

  void CloseWriter() {
    MutexLock lock(&mu);
    writer_closed = true;
    cv.NotifyAll();
  }

  void CloseReader() {
    MutexLock lock(&mu);
    reader_closed = true;
    cv.NotifyAll();
  }
};

class LocalTransport : public Transport {
 public:
  LocalTransport(std::shared_ptr<PipeChannel> in,
                 std::shared_ptr<PipeChannel> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~LocalTransport() override { Close(); }

  Result<size_t> Read(char* buf, size_t n, int timeout_ms) override {
    return in_->ReadFrom(buf, n, timeout_ms);
  }
  Status Write(std::string_view data, int timeout_ms) override {
    return out_->WriteTo(data, timeout_ms);
  }
  void ShutdownWrite() override { out_->CloseWriter(); }
  void Close() override {
    out_->CloseWriter();
    in_->CloseReader();
  }

 private:
  std::shared_ptr<PipeChannel> in_;
  std::shared_ptr<PipeChannel> out_;
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
MakeLocalPipe(size_t capacity) {
  auto a_to_b = std::make_shared<PipeChannel>(capacity);
  auto b_to_a = std::make_shared<PipeChannel>(capacity);
  return {std::make_unique<LocalTransport>(b_to_a, a_to_b),
          std::make_unique<LocalTransport>(a_to_b, b_to_a)};
}

// --- FaultInjectionTransport ---

void FaultInjectionTransport::ArmFault(TransportFault fault, int fail_at) {
  MutexLock lock(&mu_);
  armed_ = true;
  triggered_ = false;
  fault_ = fault;
  countdown_ = fail_at;
}

void FaultInjectionTransport::Reset() {
  MutexLock lock(&mu_);
  armed_ = false;
  triggered_ = false;
}

bool FaultInjectionTransport::triggered() const {
  MutexLock lock(&mu_);
  return triggered_;
}

Result<size_t> FaultInjectionTransport::Read(char* buf, size_t n,
                                             int timeout_ms) {
  TransportFault fault;
  {
    MutexLock lock(&mu_);
    bool fires = false;
    if (armed_ && (fault_ == TransportFault::kDisconnectRead ||
                   fault_ == TransportFault::kShortRead ||
                   fault_ == TransportFault::kStallRead)) {
      if (countdown_ <= 0) {
        fires = true;
        triggered_ = true;
      } else {
        --countdown_;
      }
    }
    if (!fires) return base_->Read(buf, n, timeout_ms);
    fault = fault_;
  }
  switch (fault) {
    case TransportFault::kDisconnectRead:
      return size_t{0};  // Injected EOF mid-whatever the peer was sending.
    case TransportFault::kStallRead:
      return DeadlineExceeded() << "injected read stall";
    case TransportFault::kShortRead:
      // Still a real read, just maximally sliced.
      return base_->Read(buf, n > 0 ? 1 : 0, timeout_ms);
    default:
      return Internal() << "unreachable read fault";
  }
}

Status FaultInjectionTransport::Write(std::string_view data, int timeout_ms) {
  TransportFault fault;
  {
    MutexLock lock(&mu_);
    bool fires = false;
    if (armed_ && (fault_ == TransportFault::kTornWrite ||
                   fault_ == TransportFault::kWriteError ||
                   fault_ == TransportFault::kStallWrite)) {
      if (countdown_ <= 0) {
        fires = true;
        triggered_ = true;
      } else {
        --countdown_;
      }
    }
    if (!fires) return base_->Write(data, timeout_ms);
    fault = fault_;
  }
  switch (fault) {
    case TransportFault::kTornWrite: {
      // Half the bytes reach the peer, then the connection dies: the peer
      // must detect the torn frame via CRC / EOF-mid-frame.
      std::string_view prefix = data.substr(0, data.size() / 2);
      (void)base_->Write(prefix, timeout_ms);  // Best-effort by design.
      base_->Close();
      return IOError() << "injected torn write after " << prefix.size()
                       << " of " << data.size() << " bytes";
    }
    case TransportFault::kWriteError:
      return IOError() << "injected write error";
    case TransportFault::kStallWrite:
      return DeadlineExceeded() << "injected write stall";
    default:
      return Internal() << "unreachable write fault";
  }
}

void FaultInjectionTransport::ShutdownWrite() { base_->ShutdownWrite(); }

void FaultInjectionTransport::Close() { base_->Close(); }

// --- SystemRetryClock ---

void SystemRetryClock::SleepMs(int ms) {
  if (ms <= 0) return;
  const auto deadline = Clock::now() + std::chrono::milliseconds(ms);
  MutexLock lock(&mu_);
  // Never notified: the timed wait simply elapses (slice-wise, so spurious
  // wakeups cannot shorten the sleep).
  while (Clock::now() < deadline) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) break;
    cv_.WaitFor(&mu_, left);
  }
}

}  // namespace dmx::server
