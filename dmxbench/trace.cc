#include "trace.h"

#include <utility>

#include "server/wire.h"

namespace dmxbench {

namespace {

/// Byte offset of the frame-type byte: wire frames are
/// [u32 size][u32 crc][type][body...].
constexpr size_t kFrameTypeOffset = 8;

class CountingFile : public dmx::WritableFile {
 public:
  CountingFile(std::unique_ptr<dmx::WritableFile> base,
               StoreCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  dmx::Status Append(std::string_view data) override {
    counters_->appends.fetch_add(1, std::memory_order_relaxed);
    counters_->append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  dmx::Status Sync() override {
    int64_t start = NowNs();
    dmx::Status status = base_->Sync();
    counters_->sync_ns.fetch_add(static_cast<uint64_t>(NowNs() - start),
                                 std::memory_order_relaxed);
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  dmx::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<dmx::WritableFile> base_;
  StoreCounters* counters_;
};

}  // namespace

void SessionTrace::BeginStatement(int64_t ordinal) {
  client_ordinal = ordinal;
  open_statement = -1;
  if (!recording.load(std::memory_order_relaxed) || !Sampled(ordinal)) return;
  Span span;
  span.name = "client.statement";
  span.start_ns = NowNs();
  span.session = session;
  span.ordinal = ordinal;
  open_statement = static_cast<int32_t>(client_spans.size());
  client_spans.push_back(span);
}

void SessionTrace::EndStatement() {
  if (open_statement >= 0) client_spans[open_statement].end_ns = NowNs();
  open_statement = -1;
}

dmx::Result<size_t> ServerEndTransport::Read(char* buf, size_t n,
                                             int timeout_ms) {
  const bool on = trace_->recording.load(std::memory_order_relaxed);
  const bool record = on && trace_->Sampled(trace_->server_ordinal);
  int64_t start = record ? NowNs() : 0;
  dmx::Result<size_t> got = base_->Read(buf, n, timeout_ms);
  if (!got.ok() && got.status().IsDeadlineExceeded()) {
    trace_->idle_read_timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  if (record) {
    trace_->server_spans.push_back({"server.read", start, NowNs(), -1,
                                    trace_->session, trace_->server_ordinal});
  }
  return got;
}

dmx::Status ServerEndTransport::Write(std::string_view data, int timeout_ms) {
  const bool on = trace_->recording.load(std::memory_order_relaxed);
  const bool record = on && trace_->Sampled(trace_->server_ordinal);
  int64_t start = record ? NowNs() : 0;
  dmx::Status status = base_->Write(data, timeout_ms);
  if (on) {
    trace_->frames_out.fetch_add(1, std::memory_order_relaxed);
    trace_->bytes_out.fetch_add(data.size(), std::memory_order_relaxed);
  }
  if (record) {
    trace_->server_spans.push_back({"server.write", start, NowNs(), -1,
                                    trace_->session, trace_->server_ordinal});
  }
  if (data.size() > kFrameTypeOffset &&
      data[kFrameTypeOffset] ==
          static_cast<char>(dmx::server::FrameType::kDone)) {
    ++trace_->server_ordinal;
  }
  return status;
}

dmx::Result<size_t> ClientEndTransport::Read(char* buf, size_t n,
                                             int timeout_ms) {
  int64_t start = NowNs();
  dmx::Result<size_t> got = base_->Read(buf, n, timeout_ms);
  int64_t end = NowNs();
  if (trace_->awaiting_first_byte && got.ok() && *got > 0) {
    if (trace_->recording.load(std::memory_order_relaxed)) {
      trace_->client_wait_ns.fetch_add(static_cast<uint64_t>(end - start),
                                       std::memory_order_relaxed);
    }
    trace_->awaiting_first_byte = false;
  }
  if (trace_->open_statement >= 0) {
    trace_->client_spans.push_back({"client.read", start, end,
                                    trace_->open_statement, trace_->session,
                                    trace_->client_ordinal});
  }
  return got;
}

dmx::Status ClientEndTransport::Write(std::string_view data, int timeout_ms) {
  int64_t start = NowNs();
  dmx::Status status = base_->Write(data, timeout_ms);
  if (trace_->open_statement >= 0) {
    trace_->client_spans.push_back({"client.write", start, NowNs(),
                                    trace_->open_statement, trace_->session,
                                    trace_->client_ordinal});
  }
  trace_->awaiting_first_byte = true;
  return status;
}

dmx::Result<std::unique_ptr<dmx::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool append) {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<dmx::WritableFile> file,
                       base_->NewWritableFile(path, append));
  return std::unique_ptr<dmx::WritableFile>(
      std::make_unique<CountingFile>(std::move(file), counters_));
}

dmx::Status CountingEnv::SyncDir(const std::string& path) {
  int64_t start = NowNs();
  dmx::Status status = base_->SyncDir(path);
  counters_->sync_ns.fetch_add(static_cast<uint64_t>(NowNs() - start),
                               std::memory_order_relaxed);
  counters_->syncs.fetch_add(1, std::memory_order_relaxed);
  return status;
}

}  // namespace dmxbench
