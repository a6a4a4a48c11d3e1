// Drives one workload through the real serving stack: DmxServer sessions
// on in-memory pipes, DmxClient handshakes done at set-up, closed-loop
// client threads, then a drain with the sessions still attached. The traced
// variant adds the counting decorators of trace.h and a single-threaded
// decomposition pass that replays a sample through each layer's public
// calls.

#ifndef DMXBENCH_RUNNER_H_
#define DMXBENCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/provider.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace dmxbench {

/// One set-up instance: a provider built by the workload, a server, and
/// one attached client session per workload session.
class Served {
 public:
  Served(Workload* workload, std::string store_dir, bool traced);
  ~Served();
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  /// Build + server + handshakes: the part of set-up that setup_s times.
  dmx::Status Start();
  /// Drains the server with the sessions still attached; returns the drain
  /// time in ms. Joins the session threads afterwards.
  dmx::Result<double> Drain();

  Workload* workload() { return workload_; }
  dmx::Provider* provider() { return provider_.get(); }
  dmx::server::DmxClient* client(int session) {
    return clients_[static_cast<size_t>(session)].get();
  }
  SessionTrace* trace(int session) {
    return traces_[static_cast<size_t>(session)].get();
  }
  bool traced() const { return traced_; }
  const BuildEnv& build_env() const { return build_env_; }
  StoreCounters* store_counters() { return &store_counters_; }

 private:
  Workload* workload_;
  bool traced_;
  StoreCounters store_counters_;
  std::unique_ptr<CountingEnv> env_;
  BuildEnv build_env_;
  std::unique_ptr<dmx::Provider> provider_;
  std::unique_ptr<dmx::server::DmxServer> server_;
  std::vector<std::unique_ptr<SessionTrace>> traces_;
  std::vector<std::unique_ptr<dmx::server::DmxClient>> clients_;
  std::vector<std::thread> serving_;  // Declared last: joined first.
};

/// One statement that succeeded and matched its oracle.
struct Sample {
  int64_t end_ns = 0;
  double us = 0;
  Kind kind = Kind::kSelectPoint;
  size_t rows = 0;
};

/// What one closed-loop load produced.
struct LoadResult {
  int64_t start_ns = 0;
  /// The first session to finish its plan got its last reply here; until
  /// then every session was sending. The figures are taken over
  /// [start_ns, steady_end_ns], so the tail in which fewer sessions run
  /// does not enter them.
  int64_t steady_end_ns = 0;
  uint64_t planned = 0;    ///< Plan statements, the unit of the rates.
  uint64_t attempted = 0;  ///< Plan statements plus closing statements.
  uint64_t failed = 0;
  std::vector<Sample> samples;
  std::vector<double> read_us;
  std::vector<double> write_us;
  double drain_ms = 0;  ///< Drain with the sessions still attached.
  /// Acknowledged writes, in session order (durable oracle input).
  std::vector<const Statement*> acked;
  uint64_t write_text_bytes = 0;  ///< Statement bytes of acked writes.
  std::vector<std::string> errors;  ///< The first few failures, verbatim.
};

/// Runs every session's plan to completion; statements are timed by the
/// client thread and checked against the workload's oracle. Each session
/// then sends kClosingStatement; kDrainDelayMs after the last closing
/// reply, `before_drain` runs and the server is drained with every session
/// still attached.
dmx::Result<LoadResult> RunLoad(
    Served* served, const std::function<void()>& before_drain = [] {});

/// Sent by every session after its plan, unmeasured (see RunLoad).
inline constexpr char kClosingStatement[] = "SELECT 1 AS One";
/// The drain starts this long after the last closing reply: a fixed phase
/// against the server's read-poll slices, which the drain time depends on.
inline constexpr int kDrainDelayMs = 5;

/// End-to-end figures of one or more loads. The steady part of each load
/// (see LoadResult::steady_end_ns) is cut into equal time windows (up to
/// kWindows, each with at least 1000 reads when the load has them), and
/// every figure is the median over the windows of all loads, so one
/// disturbed stretch does not set the value. read_p99_us is the median of
/// the window p99s when the windows support one, else the p99 of the steady
/// reads pooled.
class Summary {
 public:
  /// Folds one load in; its samples are not kept.
  void Add(const LoadResult& load);

  int windows() const { return static_cast<int>(rate_.size()); }
  const std::vector<double>& reads() const { return reads_; }
  double stmts_per_s() const { return Median(rate_); }
  double rows_per_s() const { return Median(row_rate_); }
  double read_p50_us() const { return Median(p50_); }
  /// 0 when neither the windows nor the pooled reads support a p99.
  double read_p99_us() const;

 private:
  std::vector<double> rate_, row_rate_, p50_, p99_, reads_;
};
inline constexpr int kWindows = 5;

/// The per-layer replay: named metrics in the units their names carry.
/// `spans` receives one span per timed call.
dmx::Result<std::map<std::string, double>> Decompose(
    Workload* workload, dmx::Provider* provider, StoreCounters* counters,
    std::vector<Span>* spans);

/// Single-row INSERT latency replayed at the relational layer in the run's
/// insert order: first decile, last decile and their ratio (zeros when the
/// workload sends no inserts).
std::map<std::string, double> InsertGrowth(const Workload& workload);

}  // namespace dmxbench

#endif  // DMXBENCH_RUNNER_H_
