#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace dmx::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Timeout for best-effort error frames on a session that is being killed.
constexpr int kErrorWriteMs = 1'000;

/// True for the one rejection shape the client may retry: admission said
/// no *before* execution began. Identified by the "statement admission"
/// context frame Connection::ExecuteGuarded attaches — a kResourceExhausted
/// from a row budget mid-statement does NOT carry it and is not retryable.
bool IsAdmissionRejection(const Status& status) {
  if (!status.IsResourceExhausted()) return false;
  const auto& frames = status.context();
  return std::find(frames.begin(), frames.end(), "statement admission") !=
         frames.end();
}

}  // namespace

DmxServer::DmxServer(Provider* provider, ServerOptions options)
    : provider_(provider), options_(std::move(options)) {}

DmxServer::~DmxServer() {
  // Last-resort drain; callers that care about the checkpoint status call
  // Drain() themselves.
  (void)Drain();
}

Status DmxServer::Start() {
  DMX_ASSIGN_OR_RETURN(listener_,
                       TcpListener::Listen(options_.host, options_.port));
  port_ = listener_->port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void DmxServer::AcceptLoop() {
  // Drain sets `draining` before it closes the listener, which fails the
  // blocked Accept; any other failure is transient.
  while (!draining()) {
    Result<std::unique_ptr<Transport>> conn = listener_->Accept();
    ReapSessions();
    if (conn.ok()) (void)AddSession(std::move(*conn), /*spawn=*/true);
  }
}

void DmxServer::ServeConnection(std::unique_ptr<Transport> transport) {
  Session* session = AddSession(std::move(transport), /*spawn=*/false);
  RunSession(session);
  EndSession(session);
  ReapSessions();
}

DmxServer::Session* DmxServer::AddSession(
    std::unique_ptr<Transport> transport, bool spawn) {
  auto session = std::make_unique<Session>();
  session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  session->transport = std::move(transport);
  Session* raw = session.get();
  // Ownership: the registry owns the Session; the thread only borrows it
  // and flips `done` last, so ReapSessions never frees a live frame. The
  // thread starts before registration, so no reaper sees it half-built.
  if (spawn) {
    raw->thread = std::thread([this, raw] {
      RunSession(raw);
      EndSession(raw);
    });
  }
  {
    MutexLock lock(&sessions_mu_);
    sessions_.push_back(std::move(session));
  }
  MutexLock lock(&stats_mu_);
  ++stats_.sessions_opened;
  return raw;
}

void DmxServer::EndSession(Session* session) {
  session->transport->Close();
  MutexLock lock(&sessions_mu_);
  session->done.store(true, std::memory_order_release);
  sessions_cv_.NotifyAll();
}

void DmxServer::ReapSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    MutexLock lock(&sessions_mu_);
    auto it = sessions_.begin();
    while (it != sessions_.end()) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Joins happen outside sessions_mu_: a join can block on session teardown
  // and must not serialize registration.
  for (auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
    MutexLock lock(&stats_mu_);
    ++stats_.sessions_closed;
  }
}

bool DmxServer::AllSessionsDone() const {
  return std::all_of(sessions_.begin(), sessions_.end(), [](const auto& s) {
    return s->done.load(std::memory_order_acquire);
  });
}

void DmxServer::RunSession(Session* session) {
  // A session registered after Drain took its snapshot is not closed by
  // it; registration happens-before this check, so it sees `draining`.
  if (draining()) return;
  Transport* transport = session->transport.get();
  FrameReader reader(transport);
  auto kill = [&](const Status& status, uint64_t request_id) {
    // Best-effort terminal frame; once framing is lost the write may fail,
    // which is fine — the client sees the disconnect.
    DoneBody done;
    done.request_id = request_id;
    done.SetStatus(status);
    (void)transport->Write(EncodeFrame(FrameType::kDone, EncodeDone(done)),
                           kErrorWriteMs);
    MutexLock lock(&stats_mu_);
    ++stats_.frames_rejected;
  };
  // One blocking read per frame. kDeadlineExceeded is the idle timeout
  // and EOF a clean close; both end the session quietly, and so does a
  // failure under a drain, which is the drain's Close waking the read.
  auto next_frame = [&]() -> std::optional<Frame> {
    Result<std::optional<Frame>> next = reader.Next(options_.idle_timeout_ms);
    if (!next.ok()) {
      if (!next.status().IsDeadlineExceeded() && !draining()) {
        kill(next.status(), 0);
      }
      return std::nullopt;
    }
    return std::move(*next);
  };

  // --- handshake ---
  std::optional<Frame> hello_frame = next_frame();
  if (!hello_frame.has_value()) return;
  if (hello_frame->type != FrameType::kHello) {
    kill(InvalidArgument() << "expected Hello, got frame type '"
                           << static_cast<char>(hello_frame->type) << "'",
         0);
    return;
  }
  Result<HelloBody> hello = DecodeHello(hello_frame->body);
  if (!hello.ok()) {
    kill(hello.status(), 0);
    return;
  }
  if (hello->version != kProtocolVersion) {
    kill(NotSupported() << "protocol version " << hello->version
                        << " not supported (server speaks "
                        << kProtocolVersion << ")",
         0);
    return;
  }
  std::unique_ptr<Connection> conn = provider_->Connect();
  conn->set_tenant(hello->tenant);
  HelloAckBody ack;
  ack.session_id = session->id;
  if (!transport
           ->Write(EncodeFrame(FrameType::kHelloAck, EncodeHelloAck(ack)),
                   options_.write_timeout_ms)
           .ok()) {
    return;
  }

  // --- statement loop ---
  uint64_t sent_bytes = 0;
  while (true) {
    std::optional<Frame> frame = next_frame();
    if (!frame.has_value()) return;
    switch (frame->type) {
      case FrameType::kRequest: {
        Result<RequestBody> request = DecodeRequest(frame->body);
        if (!request.ok()) {
          kill(request.status(), 0);
          return;
        }
        // Arm the guard from the frame header: the deadline spans
        // admission, execution and the streaming writes.
        ExecLimits limits;
        limits.deadline_ms = static_cast<int64_t>(request->deadline_ms);
        limits.cancel = std::make_shared<CancelToken>();
        ExecGuard guard(limits);
        bool refused;
        {
          // One step against Drain's snapshot: either this request sees
          // `draining`, or Drain sees its token and leaves the session open.
          MutexLock lock(&session->mu);
          refused = draining();
          if (!refused) session->cancel = limits.cancel;
        }
        if (refused) {
          // Drain refusal: the statement never starts, so it is the other
          // legitimately retryable rejection (against another replica or
          // after the restart).
          DoneBody done;
          done.request_id = request->request_id;
          done.SetStatus(Unavailable()
                         << "server is draining; statement not started");
          done.retryable = true;
          done.retry_after_ms =
              static_cast<uint32_t>(options_.drain_grace_ms);
          if (!transport
                   ->Write(EncodeFrame(FrameType::kDone, EncodeDone(done)),
                           kErrorWriteMs)
                   .ok()) {
            return;
          }
          continue;
        }
        bool keep =
            HandleRequest(conn.get(), transport, *request, &guard, &sent_bytes);
        {
          // A drain that found this statement running left the session
          // open; it ends here, after the statement's Done.
          MutexLock lock(&session->mu);
          session->cancel.reset();
          keep = keep && !draining();
        }
        if (!keep) return;
        continue;
      }
      case FrameType::kCancel: {
        // Statements on a session are serial, so a Cancel can only arrive
        // between requests: decode for validity, then ignore (the request
        // it names has already finished).
        Result<CancelBody> cancel = DecodeCancel(frame->body);
        if (!cancel.ok()) {
          kill(cancel.status(), 0);
          return;
        }
        continue;
      }
      case FrameType::kGoodbye:
        return;
      default:
        kill(InvalidArgument()
                 << "unexpected frame type '"
                 << static_cast<char>(frame->type) << "' from client",
             0);
        return;
    }
  }
}

bool DmxServer::HandleRequest(Connection* conn, Transport* transport,
                              const RequestBody& request, ExecGuard* guard,
                              uint64_t* sent_bytes) {
  Result<Rowset> result = conn->ExecuteGuarded(request.statement, guard);

  auto write_timeout = [&]() {
    int timeout = options_.write_timeout_ms;
    if (guard->has_deadline()) {
      int64_t left = guard->remaining_ms();
      timeout = static_cast<int>(
          std::min<int64_t>(timeout, left > 0 ? left : 1));
    }
    return timeout;
  };
  auto send = [&](FrameType type, const std::string& body) {
    std::string frame = EncodeFrame(type, body);
    *sent_bytes += frame.size();
    return transport->Write(frame, write_timeout());
  };
  auto over_budget = [&]() {
    return options_.max_session_send_bytes > 0 &&
           *sent_bytes > options_.max_session_send_bytes;
  };

  DoneBody done;
  done.request_id = request.request_id;
  auto fail = [&](const Status& status) {
    done.SetStatus(status);
    MutexLock lock(&stats_mu_);
    ++stats_.statements_failed;
  };

  if (!result.ok()) {
    fail(result.status());
    if (IsAdmissionRejection(result.status())) {
      done.retryable = true;
      done.retry_after_ms = provider_->admission()->SuggestedRetryMs();
    }
    return send(FrameType::kDone, EncodeDone(done)).ok();
  }

  // Stream the rowset: Schema, then Chunks, then Done. The guard keeps
  // ticking — a deadline that expires mid-stream turns the tail of the
  // response into a kDeadlineExceeded Done, and a stalled reader trips the
  // write timeout, ending the session.
  SchemaBody schema;
  schema.request_id = request.request_id;
  schema.schema = result->schema();
  if (!send(FrameType::kSchema, EncodeSchemaBody(schema)).ok()) return false;

  const std::vector<Row>& rows = result->rows();
  for (size_t off = 0; off < rows.size(); off += options_.chunk_rows) {
    Status tick = guard->Check();
    if (!tick.ok()) {
      fail(tick.WithContext("streaming response"));
      return send(FrameType::kDone, EncodeDone(done)).ok();
    }
    if (over_budget()) {
      fail(ResourceExhausted()
           << "session send budget exhausted (" << *sent_bytes << " of "
           << options_.max_session_send_bytes << " bytes)");
      (void)send(FrameType::kDone, EncodeDone(done));
      return false;  // Budget is per session: the session ends with it.
    }
    ChunkBody chunk;
    chunk.request_id = request.request_id;
    size_t end = std::min(rows.size(), off + options_.chunk_rows);
    chunk.rows.assign(rows.begin() + static_cast<ptrdiff_t>(off),
                      rows.begin() + static_cast<ptrdiff_t>(end));
    if (!send(FrameType::kChunk, EncodeChunk(chunk)).ok()) return false;
  }

  {
    MutexLock lock(&stats_mu_);
    ++stats_.statements_ok;
  }
  return send(FrameType::kDone, EncodeDone(done)).ok();
}

Status DmxServer::Drain() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    return Status::OK();  // Already drained.
  }
  RequestDrain();
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Wake the idle sessions by closing their transports. A session with a
  // cancel token is running a statement and stays open until its Done is
  // written; every later request on any session sees `draining`.
  std::vector<std::shared_ptr<Transport>> idle;
  {
    MutexLock lock(&sessions_mu_);
    for (const auto& session : sessions_) {
      MutexLock session_lock(&session->mu);
      if (session->cancel == nullptr) idle.push_back(session->transport);
    }
  }
  for (const auto& transport : idle) transport->Close();

  // Grace: in-flight statements may finish on their own. Past it, cancel
  // stragglers through their CancelTokens; the guard checkpoints inside the
  // algorithms unwind them cooperatively.
  const auto grace_deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_grace_ms);
  {
    MutexLock lock(&sessions_mu_);
    while (!AllSessionsDone() && Clock::now() < grace_deadline) {
      sessions_cv_.WaitFor(&sessions_mu_,
                           std::chrono::ceil<std::chrono::milliseconds>(
                               grace_deadline - Clock::now()));
    }
    for (const auto& session : sessions_) {
      MutexLock session_lock(&session->mu);
      if (session->cancel != nullptr) session->cancel->Cancel();
    }
    while (!AllSessionsDone()) sessions_cv_.Wait(&sessions_mu_);
  }
  ReapSessions();

  // Checkpoint the store so the drained state is the recovered state.
  if (provider_->store() != nullptr) {
    return provider_->Checkpoint().WithContext("checkpointing on drain");
  }
  return Status::OK();
}

DmxServer::Stats DmxServer::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

}  // namespace dmx::server
