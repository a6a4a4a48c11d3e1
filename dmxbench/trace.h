// Tracing from outside the program: decorators the benchmark wraps around
// the product's own seams (server::Transport on both pipe ends, the store's
// Env), counting work and recording spans around every call that crosses
// them. Nothing here is linked into the product.

#ifndef DMXBENCH_TRACE_H_
#define DMXBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "server/transport.h"
#include "stats.h"

namespace dmxbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans are kept for every kSpanEvery-th statement of a session (counters
/// cover all of them), which bounds the in-memory log on long runs.
inline constexpr int64_t kSpanEvery = 8;

/// Everything traced for one session. Owned by the benchmark so it outlives
/// the transports the server and client destroy. Counters are atomics
/// because the server thread may still be polling when the main thread
/// snapshots them; each span vector has exactly one writer thread and is
/// read only after that thread has been joined.
struct SessionTrace {
  int32_t session = 0;
  std::atomic<bool> recording{false};

  // Server end.
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> bytes_out{0};
  /// Counted whether or not `recording`; reset when the load ends, so it
  /// counts the poll slices the drain waits out.
  std::atomic<uint64_t> idle_read_timeouts{0};
  std::vector<Span> server_spans;
  int64_t server_ordinal = 0;  ///< Server thread only: Done frames written.

  // Client end.
  std::atomic<uint64_t> client_wait_ns{0};
  std::vector<Span> client_spans;
  int64_t client_ordinal = 0;
  int32_t open_statement = -1;  ///< Index of the statement span, or -1.
  bool awaiting_first_byte = false;

  bool Sampled(int64_t ordinal) const { return ordinal % kSpanEvery == 0; }

  /// Client thread: brackets one DmxClient::Execute.
  void BeginStatement(int64_t ordinal);
  void EndStatement();
};

/// Server end of a session pipe: counts frames and bytes written, read
/// calls that time out idle, and records server.read / server.write spans.
class ServerEndTransport : public dmx::server::Transport {
 public:
  ServerEndTransport(std::unique_ptr<dmx::server::Transport> base,
                     SessionTrace* trace)
      : base_(std::move(base)), trace_(trace) {}

  dmx::Result<size_t> Read(char* buf, size_t n, int timeout_ms) override;
  dmx::Status Write(std::string_view data, int timeout_ms) override;
  void ShutdownWrite() override { base_->ShutdownWrite(); }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<dmx::server::Transport> base_;
  SessionTrace* trace_;
};

/// Client end of a session pipe: times how long the client sits blocked in
/// Read before the first response byte of each request, and records
/// client.read / client.write spans under the open statement span.
class ClientEndTransport : public dmx::server::Transport {
 public:
  ClientEndTransport(std::unique_ptr<dmx::server::Transport> base,
                     SessionTrace* trace)
      : base_(std::move(base)), trace_(trace) {}

  dmx::Result<size_t> Read(char* buf, size_t n, int timeout_ms) override;
  dmx::Status Write(std::string_view data, int timeout_ms) override;
  void ShutdownWrite() override { base_->ShutdownWrite(); }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<dmx::server::Transport> base_;
  SessionTrace* trace_;
};

/// Store-side counters, filled by CountingEnv's files.
struct StoreCounters {
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> append_bytes{0};
  std::atomic<uint64_t> syncs{0};  ///< File fsyncs plus directory fsyncs.
  std::atomic<uint64_t> sync_ns{0};
};

/// Env decorator over Env::Default() counting appends, bytes and fsyncs;
/// passed to Provider::OpenStore as StoreOptions::env.
class CountingEnv : public dmx::Env {
 public:
  explicit CountingEnv(StoreCounters* counters)
      : base_(dmx::Env::Default()), counters_(counters) {}

  dmx::Result<std::unique_ptr<dmx::WritableFile>> NewWritableFile(
      const std::string& path, bool append) override;
  dmx::Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  dmx::Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  dmx::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  dmx::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  dmx::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  dmx::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  dmx::Status SyncDir(const std::string& path) override;
  dmx::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }

 private:
  dmx::Env* base_;
  StoreCounters* counters_;
};

}  // namespace dmxbench

#endif  // DMXBENCH_TRACE_H_
