// The transport seam of the serving front end (DESIGN.md §13): every byte
// the server or the in-repo client moves crosses the `Transport` interface,
// the network analogue of the store's `Env` seam. Production code talks to
// real sockets through `TcpTransport`; tests swap in
//
//   * `MakeLocalPipe`   — an in-memory, *bounded* duplex pipe whose full
//     buffer blocks the writer, so write-side backpressure and stalled
//     readers are modelled faithfully without a kernel socket, and
//   * `FaultInjectionTransport` — a wrapper that tears writes mid-frame,
//     forces disconnects, truncates reads and injects stalls at the k-th
//     operation, mirroring `FaultInjectionEnv`'s arm-a-fault style.
//
// Timeouts: every call takes `timeout_ms`; <= 0 means block until data,
// space, EOF or Close. A call blocks until its condition or its deadline,
// never in slices, so an idle reader costs no wake-ups. A timed-out call
// returns kDeadlineExceeded: a timed-out Read lost no bytes and may be
// retried; a timed-out Write may have transmitted a prefix, so the stream
// is no longer frame-aligned and the caller must close (exactly how a real
// socket behaves).
//
// Close is the wake-up: it may be called from any thread, and every Read
// or Write blocked on that transport returns (EOF or an error) instead of
// waiting out its timeout. The server's drain relies on this to end idle
// sessions.

#ifndef DMX_SERVER_TRANSPORT_H_
#define DMX_SERVER_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"

namespace dmx::server {

/// \brief Byte-stream endpoint: the only I/O surface of server and client.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads up to `n` bytes into `buf`. Returns the count actually read
  /// (short reads are normal); 0 means the peer half-closed (clean EOF).
  /// kDeadlineExceeded after `timeout_ms` with no bytes available.
  virtual Result<size_t> Read(char* buf, size_t n, int timeout_ms) = 0;

  /// Writes all of `data`, blocking on backpressure up to `timeout_ms`.
  /// kDeadlineExceeded on a stalled peer (a prefix may have been sent —
  /// the stream is no longer frame-aligned and must be closed);
  /// kUnavailable when the peer has closed.
  virtual Status Write(std::string_view data, int timeout_ms) = 0;

  /// Half-close: signals EOF to the peer's reads; local reads still drain.
  virtual void ShutdownWrite() = 0;

  /// Full close, idempotent and callable from any thread: wakes every Read
  /// and Write blocked on this transport, and later calls fail or see EOF.
  virtual void Close() = 0;
};

// --- TCP ---

/// \brief Listening socket. `port = 0` binds an ephemeral port (tests);
/// `port()` reports the bound port either way.
class TcpListener {
 public:
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds + listens on `host:port` (host empty = 127.0.0.1).
  static Result<std::unique_ptr<TcpListener>> Listen(const std::string& host,
                                                     uint16_t port);

  /// Blocks until one connection arrives or Close() is called (then an
  /// error).
  Result<std::unique_ptr<Transport>> Accept();

  uint16_t port() const { return port_; }
  /// Stops listening and wakes a blocked Accept; callable from any thread.
  /// The descriptor is released only by the destructor, so a concurrent
  /// Accept never touches a reused fd.
  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  const int fd_;
  uint16_t port_;
};

/// Connects to `host:port`; kUnavailable when nothing listens there.
Result<std::unique_ptr<Transport>> ConnectTcp(const std::string& host,
                                              uint16_t port, int timeout_ms);

// --- in-memory pipe ---

/// \brief Creates a connected duplex pair of in-memory transports. Each
/// direction is a bounded byte channel of `capacity` bytes: a writer into a
/// full channel blocks until the reader drains it (write-side
/// backpressure), times out (stalled reader), or the reader closes
/// (kUnavailable). Both ends are thread-safe; the usual shape is one
/// server session thread on `first` and a test/client thread on `second`.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
MakeLocalPipe(size_t capacity = 64 * 1024);

// --- fault injection ---

/// Fault kinds a test can arm on a FaultInjectionTransport.
enum class TransportFault {
  kTornWrite,       ///< Write sends a prefix, then the connection dies.
  kWriteError,      ///< Write fails with kIOError, nothing sent.
  kDisconnectRead,  ///< Read reports EOF regardless of buffered bytes.
  kShortRead,       ///< Reads deliver at most 1 byte each (stress framing).
  kStallRead,       ///< Reads time out (kDeadlineExceeded) forever.
  kStallWrite,      ///< Writes time out after sending nothing.
};

/// \brief Decorator injecting faults at the k-th read/write, in the style
/// of FaultInjectionEnv::ArmFault. Operations before the trigger pass
/// through untouched; once triggered the fault is sticky until Reset().
class FaultInjectionTransport : public Transport {
 public:
  explicit FaultInjectionTransport(std::unique_ptr<Transport> base)
      : base_(std::move(base)) {}

  /// Arms `fault` to fire on the `fail_at`-th subsequent operation of the
  /// relevant kind (0 = the very next one).
  void ArmFault(TransportFault fault, int fail_at);
  /// Disarms any armed or triggered fault.
  void Reset();
  /// True once the armed fault has fired at least once.
  bool triggered() const;

  Result<size_t> Read(char* buf, size_t n, int timeout_ms) override;
  Status Write(std::string_view data, int timeout_ms) override;
  void ShutdownWrite() override;
  void Close() override;

 private:
  std::unique_ptr<Transport> base_;
  mutable Mutex mu_{"server.fault_transport.mu"};
  bool armed_ DMX_GUARDED_BY(mu_) = false;
  bool triggered_ DMX_GUARDED_BY(mu_) = false;
  TransportFault fault_ DMX_GUARDED_BY(mu_) = TransportFault::kTornWrite;
  int countdown_ DMX_GUARDED_BY(mu_) = 0;
};

// --- retry clock ---

/// \brief The client's backoff sleep seam. Bare sleep_for is banned in
/// src/ (dmx_lint raw-sleep): real code waits on a never-notified CondVar
/// through SystemRetryClock; tests substitute a recording clock so retry
/// schedules are asserted, not slept.
class RetryClock {
 public:
  virtual ~RetryClock() = default;
  virtual void SleepMs(int ms) = 0;
};

/// Default RetryClock: a timed CondVar wait (the sanctioned blocking
/// primitive), never notified, so it simply elapses.
class SystemRetryClock : public RetryClock {
 public:
  void SleepMs(int ms) override;

 private:
  Mutex mu_{"server.retry_clock.mu"};
  CondVar cv_;
};

}  // namespace dmx::server

#endif  // DMX_SERVER_TRANSPORT_H_
