// DmxServer: the multi-session network front end over Provider (DESIGN.md
// §13). One accept thread plus one thread per session; each session owns
// one Connection and speaks the framed protocol of wire.h over a
// Transport, so the whole server is testable against in-memory pipes and
// injected faults without a socket. Nothing polls: the accept thread
// blocks in Accept, a session blocks in its read for up to the idle
// timeout, and Drain wakes both by closing what they block on.
//
// Robustness contract:
//   * A malformed, torn or hostile byte stream terminates *that session*
//     with a well-formed error (or a disconnect once framing is lost) —
//     never the server.
//   * The request deadline in the frame header arms the statement's
//     ExecGuard *and* bounds response streaming, so one number covers
//     queueing + execution + the writes back to the client.
//   * A stalled reader trips the per-write send budget (write timeout) and
//     the session is dropped instead of buffering without bound.
//   * A session silent for `idle_timeout_ms` is dropped: its one blocking
//     read timing out *is* the idle timeout.
//   * Drain (SIGTERM in dmxsh --serve) runs the state machine: stop
//     accepting -> refuse new statements with retryable kUnavailable ->
//     close every idle session's transport, which wakes its read ->
//     grace period for in-flight statements -> cancel stragglers through
//     their CancelToken -> join sessions -> checkpoint the store.
//   * A statement the server starts always has its response written, or
//     is unwound through its CancelToken into a kCancelled Done; the
//     drain never closes a transport under a running statement. A request
//     that races the drain is either refused (retryable kUnavailable) or
//     finds its session closed; it never executes.

#ifndef DMX_SERVER_SERVER_H_
#define DMX_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_guard.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/provider.h"
#include "server/transport.h"
#include "server/wire.h"

namespace dmx::server {

struct ServerOptions {
  std::string host;  ///< Bind address, empty = 127.0.0.1.
  uint16_t port = 0;  ///< 0 = ephemeral (tests); port() reports the result.
  /// A session with no complete frame for this long is dropped.
  int idle_timeout_ms = 60'000;
  /// Per-write send budget: a client that cannot drain a response write
  /// within this bound is a stalled reader and loses its session.
  int write_timeout_ms = 10'000;
  /// Drain: how long in-flight statements get to finish before their
  /// CancelTokens fire.
  int drain_grace_ms = 2'000;
  /// Rows per Chunk frame when streaming a result.
  size_t chunk_rows = 256;
  /// Cumulative response-byte budget per session, 0 = unlimited. A session
  /// exceeding it gets kResourceExhausted and is closed — the cap that
  /// keeps one pathological client from monopolizing the write path.
  uint64_t max_session_send_bytes = 0;
};

/// \brief The serving front end. Owns the listener, the accept thread and
/// every session thread; `provider` must outlive the server.
class DmxServer {
 public:
  DmxServer(Provider* provider, ServerOptions options);
  ~DmxServer();

  DmxServer(const DmxServer&) = delete;
  DmxServer& operator=(const DmxServer&) = delete;

  /// Binds the listener and starts accepting. Fails with the bind error
  /// (port taken, sandboxed environment) without touching the provider.
  Status Start();

  /// The bound port (valid after Start; the ephemeral answer for port 0).
  uint16_t port() const { return port_; }

  /// Flags the drain state machine from any thread (async-signal-safe: one
  /// atomic store). New statements are refused with retryable
  /// kUnavailable; Drain() completes the shutdown.
  void RequestDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Graceful drain to completion: stop accepting, give in-flight
  /// statements `drain_grace_ms`, cancel stragglers via their CancelToken,
  /// join every session, checkpoint the store (when one is attached).
  /// Idempotent; also runs from the destructor as a last resort.
  Status Drain();

  /// \brief Serves one already-connected transport on the calling thread
  /// until the session ends (tests and the fuzz harness drive hostile
  /// byte streams through here without a listener).
  void ServeConnection(std::unique_ptr<Transport> transport);

  /// Leak/health counters for tests: after every client disconnects,
  /// sessions_closed == sessions_opened.
  struct Stats {
    uint64_t sessions_opened = 0;
    uint64_t sessions_closed = 0;
    uint64_t statements_ok = 0;
    uint64_t statements_failed = 0;
    uint64_t frames_rejected = 0;  ///< Sessions killed by protocol errors.
  };
  Stats stats() const;

 private:
  struct Session {
    uint64_t id = 0;
    /// Shared so Drain can Close it from its own thread while the session
    /// ends and is reaped.
    std::shared_ptr<Transport> transport;
    /// Set under the server's sessions_mu_, which Drain waits on.
    std::atomic<bool> done{false};
    /// The running statement's cancel token: set from the moment a request
    /// passes the draining() check until its Done is written. Drain closes
    /// only sessions without one and fires it for stragglers.
    std::shared_ptr<CancelToken> cancel;
    Mutex mu{"server.session.mu"};  ///< Guards `cancel` only.
    std::thread thread;  ///< Last: it runs on the members above.
  };

  void AcceptLoop();
  /// Registers a session on `transport`. With `spawn` it runs on its own
  /// thread (the pointer returned may then already be reaped); without, the
  /// caller runs it.
  Session* AddSession(std::unique_ptr<Transport> transport, bool spawn)
      DMX_EXCLUDES(sessions_mu_);
  /// Closes the session's transport and marks it done for the reaper.
  void EndSession(Session* session) DMX_EXCLUDES(sessions_mu_);
  /// The per-session protocol loop (body of ServeConnection).
  void RunSession(Session* session);
  /// Executes one Request on the session's Connection and streams
  /// Schema/Chunk/Done under `guard`. Returns false when the session must
  /// end (write failure / budget exhausted).
  bool HandleRequest(Connection* conn, Transport* transport,
                     const RequestBody& request, ExecGuard* guard,
                     uint64_t* sent_bytes);
  /// Joins finished session threads (on each accept and in Drain).
  void ReapSessions() DMX_EXCLUDES(sessions_mu_);
  bool AllSessionsDone() const DMX_REQUIRES(sessions_mu_);

  Provider* provider_;
  ServerOptions options_;
  std::unique_ptr<TcpListener> listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> next_session_id_{1};

  mutable Mutex sessions_mu_{"server.sessions_mu"};
  /// Never held across Execute or a transport call: sessions register /
  /// deregister only (lockdep class "server.sessions_mu").
  std::vector<std::unique_ptr<Session>> sessions_ DMX_GUARDED_BY(sessions_mu_);
  /// Notified when a session sets `done`; Drain waits on it.
  CondVar sessions_cv_;

  mutable Mutex stats_mu_{"server.stats_mu"};
  Stats stats_ DMX_GUARDED_BY(stats_mu_);
};

}  // namespace dmx::server

#endif  // DMX_SERVER_SERVER_H_
