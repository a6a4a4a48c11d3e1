// dmxbench: the OpenDMX benchmark binary. Normally started by run.py:
//
//   dmxbench --workload <serve_point|batch_score|durable_ingest> --seed N
//            --seconds S --trace <0|1> --work-dir DIR [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only when
// every statement succeeded and matched its oracle.
//
//   dmxbench --selftest        checks the benchmark's own arithmetic
//   dmxbench ... --break-oracle  corrupts every expectation: the run must fail

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runner.h"
#include "stats.h"
#include "workloads.h"

namespace dmxbench {
namespace {

#ifndef DMXBENCH_BUILD_TYPE
#define DMXBENCH_BUILD_TYPE "unknown"
#endif

/// Loads per end-to-end run, each on a fresh set-up with fresh sessions
/// and threads; drain_ms is the median over them, the other figures medians
/// over all their time windows. Each load runs --seconds / kLoads worth of
/// statements.
constexpr int kLoads = 5;
/// Further set-ups, timed and torn down without a load: set-up takes 10 to
/// 150 ms, so setup_s is the median over kLoads + kBareSetups of them.
constexpr int kBareSetups = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 0;  ///< Required: BENCHMARK.json's run_seconds, via run.py.
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  bool break_oracle = false;
  bool selftest = false;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      o->selftest = true;
    } else if (arg == "--break-oracle") {
      o->break_oracle = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atoi(v);
    } else if (arg == "--trace") {
      o->trace = std::string(v) == "1";
    } else if (arg == "--work-dir") {
      o->work_dir = v;
    } else if (arg == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
  }
  return o->selftest || (!o->workload.empty() && o->seconds > 0);
}

// --- self-test -----------------------------------------------------------

bool Expect(bool ok, const char* what) {
  std::printf("selftest %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

/// Checks the benchmark's calculations on synthetic input, and that the
/// response oracle rejects a result its expectation does not describe.
bool SelfTest() {
  bool ok = true;
  Span parent{"p", 0, 100, -1, 0, 0};
  std::vector<Span> children = {{"a", 10, 30, 0, 0, 0},
                                {"b", 20, 50, 0, 0, 0},
                                {"c", 90, 120, 0, 0, 0},
                                {"d", 150, 200, 0, 0, 0}};
  ok &= Expect(SelfTimeNs(parent, children) == 50,
               "self time = span minus union of children");
  ok &= Expect(SelfTimeNs(parent, {}) == 100, "self time without children");

  ok &= Expect(Supports(1000, 0.99) && !Supports(999, 0.99),
               "p99 needs ten samples beyond it (n=1000 yes, 999 no)");
  ok &= Expect(HighestSupportedPercentile(999) == 0.95 &&
                   HighestSupportedPercentile(10000) == 0.999 &&
                   HighestSupportedPercentile(20) == 0.5 &&
                   HighestSupportedPercentile(19) == 0,
               "highest supported percentile");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  ok &= Expect(QuantileSorted(ramp, 0.99) == 990 &&
                   QuantileSorted(ramp, 0.5) == 500,
               "nearest-rank quantiles");

  Residual r = HandoffResidual(10, 6, 3, 2);
  ok &= Expect(r.negative && r.us == -1,
               "negative handoff is flagged and not clamped");

  auto workload = MakeWorkload("serve_point", 1, 1);
  const Statement& first = *workload->plan()[0][0];
  dmx::Rowset result(dmx::Schema::Make({{"X", dmx::DataType::kLong}}));
  (void)result.Append({dmx::Value::Long(7)});
  workload->expectations[static_cast<size_t>(first.expect)] = {
      1, DigestRows(result.rows())};
  const bool accepts = workload->Check(first, result);
  workload->expectations[static_cast<size_t>(first.expect)].digest ^= 1;
  ok &= Expect(accepts && !workload->Check(first, result),
               "oracle accepts a match and rejects a wrong expectation");
  return ok;
}

// --- host facts ----------------------------------------------------------

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                    static_cast<uint64_t>(fs.f_type));
      return buf;
    }
  }
}

void PrintHost(const Options& o, const Workload& workload) {
#ifdef __clang__
  const char* compiler = "clang " __VERSION__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"store_fs\": \"%s\", \"flush_policy\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %d, "
      "\"trace\": %d}}\n",
      std::thread::hardware_concurrency(), DMXBENCH_BUILD_TYPE, compiler,
      workload.durable() ? FilesystemOf(o.work_dir).c_str() : "none",
      workload.durable()
          ? "fsync per acknowledged statement, auto-checkpoint off, "
            "checkpoint on drain"
          : "no store",
      workload.name(), o.seed, o.seconds, o.trace ? 1 : 0);
}

// --- output --------------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-48s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintErrors(const LoadResult& load) {
  for (const std::string& error : load.errors) {
    std::fprintf(stderr, "statement failed: %s\n", error.c_str());
  }
}

/// Prints a latency distribution's median and highest supported percentile
/// with its sample count (informational; the metrics carry p50 and p99).
void PrintSamples(const char* what, std::vector<double> us) {
  std::sort(us.begin(), us.end());
  double q = HighestSupportedPercentile(us.size());
  if (q == 0) {
    std::printf("%s: %zu samples, too few for any percentile\n", what,
                us.size());
    return;
  }
  std::printf("%s: %zu samples, p50 %.1f us, highest supported p%g %.1f us\n",
              what, us.size(), QuantileSorted(us, 0.5), q * 100,
              QuantileSorted(us, q));
}

/// What FinishRun leaves behind.
struct Outcome {
  LoadResult load;
  uint64_t lost = 0;  ///< Acknowledged writes missing after recovery.
  /// Store counter deltas over the load alone (the drain's checkpoint is
  /// excluded); zero unless the set-up counts through CountingEnv.
  double syncs = 0, sync_ns = 0, appends = 0, append_bytes = 0;
  std::unique_ptr<Served> served;
  std::unique_ptr<dmx::Provider> reopened;  ///< Durable: the recovered one.
};

/// A drained load whose store is reopened and checked later, once the
/// served instance is gone: the recovery oracle's second provider then never
/// shares the process with a served one, so it stays out of peak_rss_mb.
struct PendingRecovery {
  BuildEnv env;
  std::vector<const Statement*> acked;
};

/// Reopens each pending store in turn and adds the acknowledged writes it
/// lost to `*failed`.
dmx::Status VerifyPending(Workload* workload,
                          std::vector<PendingRecovery>* pending,
                          uint64_t* failed) {
  for (const PendingRecovery& p : *pending) {
    std::unique_ptr<dmx::Provider> reopened;
    DMX_ASSIGN_OR_RETURN(uint64_t lost,
                         workload->VerifyRecovery(p.env, p.acked, &reopened));
    *failed += lost;
  }
  pending->clear();
  malloc_trim(0);
  return dmx::Status::OK();
}

/// Computes expectations, runs the load and drains. Recovery is checked by
/// the caller: VerifyRecovery on the spot, or later through PendingRecovery.
dmx::Status FinishRun(bool break_oracle, Outcome* out) {
  Served* served = out->served.get();
  Workload* workload = served->workload();
  DMX_RETURN_IF_ERROR(workload->ComputeExpectations(served->provider()));
  if (break_oracle) {
    for (Expectation& e : workload->expectations) e.digest ^= 1;
  }
  StoreCounters* c = served->store_counters();
  const uint64_t syncs = c->syncs, sync_ns = c->sync_ns, appends = c->appends,
                 bytes = c->append_bytes;
  DMX_ASSIGN_OR_RETURN(out->load, RunLoad(served, [&] {
                         // Idle-read timeouts are counted from here on: the
                         // poll slices the drain has to wait out.
                         for (int s = 0; served->traced() &&
                                         s < workload->sessions();
                                      ++s) {
                           served->trace(s)->idle_read_timeouts.store(0);
                         }
                         out->syncs = static_cast<double>(c->syncs - syncs);
                         out->sync_ns = static_cast<double>(c->sync_ns - sync_ns);
                         out->appends = static_cast<double>(c->appends - appends);
                         out->append_bytes =
                             static_cast<double>(c->append_bytes - bytes);
                       }));
  PrintErrors(out->load);
  return dmx::Status::OK();
}

/// Checks recovery of a load whose served instance is still alive (traced
/// runs, which report no peak_rss_mb and read the reopened provider).
dmx::Status VerifyNow(Outcome* out) {
  Served* served = out->served.get();
  DMX_ASSIGN_OR_RETURN(
      out->lost, served->workload()->VerifyRecovery(
                     served->build_env(), out->load.acked, &out->reopened));
  return dmx::Status::OK();
}

/// Sets up a fresh instance (timed into `*setup_s` when given) and runs
/// FinishRun on it.
dmx::Status RunOnce(const Options& o, Workload* workload, const char* tag,
                    bool traced, bool break_oracle, Outcome* out,
                    double* setup_s = nullptr) {
  out->served = std::make_unique<Served>(
      workload, o.work_dir + "/store-" + tag, traced);
  int64_t start = NowNs();
  DMX_RETURN_IF_ERROR(out->served->Start());
  if (setup_s != nullptr) {
    *setup_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  return FinishRun(break_oracle, out);
}

/// Runs one load on a fresh untraced set-up, counts it, tears the set-up
/// down and queues its store for VerifyPending.
dmx::Status RunAndRelease(const Options& o, Workload* workload,
                          const std::string& tag, Outcome* out,
                          uint64_t* attempted, uint64_t* failed,
                          std::vector<PendingRecovery>* pending,
                          double* setup_s = nullptr) {
  DMX_RETURN_IF_ERROR(RunOnce(o, workload, tag.c_str(), false,
                              o.break_oracle, out, setup_s));
  *attempted += out->load.attempted;
  *failed += out->load.failed;
  pending->push_back({out->served->build_env(), std::move(out->load.acked)});
  out->served.reset();
  // Hand freed set-ups back to the OS, so peak_rss_mb measures one set-up
  // and load rather than the allocator's leftovers from earlier ones.
  malloc_trim(0);
  return dmx::Status::OK();
}

/// One untimed load first, so the measured ones run against a warm
/// process (allocator arenas of the session threads already populated), as
/// a long-running server would. Its statements are checked like any other.
dmx::Status WarmUp(const Options& o, Workload* workload, uint64_t* attempted,
                   uint64_t* failed, std::vector<PendingRecovery>* pending) {
  Outcome warm;
  return RunAndRelease(o, workload, "warm", &warm, attempted, failed,
                       pending);
}

int Fail(const dmx::Status& status) {
  std::fprintf(stderr, "dmxbench: %s\n", status.ToString().c_str());
  return 1;
}

int RunEndToEnd(const Options& o, Workload* workload) {
  std::vector<double> setup_s, drain_ms, writes;
  Summary summary;
  uint64_t attempted = 0, failed = 0;
  std::vector<PendingRecovery> pending;
  dmx::Status warmed = WarmUp(o, workload, &attempted, &failed, &pending);
  if (!warmed.ok()) return Fail(warmed);
  for (int k = 0; k < kLoads; ++k) {
    Outcome out;
    setup_s.emplace_back();
    dmx::Status status =
        RunAndRelease(o, workload, std::to_string(k), &out, &attempted,
                      &failed, &pending, &setup_s.back());
    if (!status.ok()) return Fail(status);
    drain_ms.push_back(out.load.drain_ms);
    summary.Add(out.load);
    writes.insert(writes.end(), out.load.write_us.begin(),
                  out.load.write_us.end());
  }
  // Read before any recovery check reopens a store: the peak of serving.
  const double peak_rss_mb = PeakRssMiB();
  dmx::Status recovered = VerifyPending(workload, &pending, &failed);
  if (!recovered.ok()) return Fail(recovered);

  for (int k = 0; k < kBareSetups; ++k) {
    Served bare(workload, o.work_dir + "/store-bare-" + std::to_string(k),
                false);
    int64_t start = NowNs();
    dmx::Status status = bare.Start();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) return Fail(status);
  }

  PrintSamples("reads", summary.reads());
  PrintSamples("writes", writes);
  std::printf("windows: %d over %d loads\n", summary.windows(), kLoads);
  std::vector<Metric> metrics = {
      {"stmts_per_s", summary.stmts_per_s(), "stmts/s"},
      {"read_p50_us", summary.read_p50_us(), "us"},
      {"read_p99_us", summary.read_p99_us(), "us"},
      {"rows_per_s", summary.rows_per_s(), "rows/s"},
      {"drain_ms", Median(drain_ms), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  // A failed statement fails the run whatever the samples: only statements
  // that matched their oracle are timed, so the figures would be too small.
  if (failed > 0) {
    PrintResult(false, attempted, failed, metrics);
    return 1;
  }
  if (!Supports(summary.reads().size(), 0.99)) {
    std::fprintf(stderr,
                 "dmxbench: %zu read samples cannot support a p99; run "
                 "longer\n",
                 summary.reads().size());
    return 1;
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const char* side) {
  std::ofstream file(path, std::ios::app);
  for (const Span& s : spans) {
    file << side << '\t' << s.session << '\t' << s.ordinal << '\t' << s.name
         << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
         << '\n';
  }
}

int RunTraced(const Options& o, Workload* workload) {
  uint64_t attempted = 0, failed = 0;
  std::vector<PendingRecovery> pending;
  dmx::Status status = WarmUp(o, workload, &attempted, &failed, &pending);
  if (status.ok()) status = VerifyPending(workload, &pending, &failed);
  if (!status.ok()) return Fail(status);
  // Untraced first: the baseline for tracing overhead and the write
  // latency distribution.
  Outcome plain;
  status = RunOnce(o, workload, "plain", false, false, &plain);
  if (status.ok()) status = VerifyNow(&plain);
  if (!status.ok()) return Fail(status);
  plain.served.reset();
  plain.reopened.reset();

  Outcome traced;
  status = RunOnce(o, workload, "traced", true, o.break_oracle, &traced);
  if (status.ok()) status = VerifyNow(&traced);
  if (!status.ok()) return Fail(status);
  const LoadResult& load = traced.load;
  const int sessions = workload->sessions();
  failed += plain.load.failed + plain.lost + load.failed + traced.lost;
  attempted += plain.load.attempted + load.attempted;
  // The decomposition replays statements through the same oracle, which a
  // failed load has already shown wrong: report the failure instead.
  if (failed > 0) {
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  StoreCounters* counters = traced.served->store_counters();
  const double syncs = traced.syncs, sync_ns = traced.sync_ns,
               appends = traced.appends, append_bytes = traced.append_bytes;

  std::vector<Span> decomposition_spans;
  dmx::Provider* idle = traced.reopened != nullptr
                            ? traced.reopened.get()
                            : traced.served->provider();
  auto layers = Decompose(workload, idle, counters, &decomposition_spans);
  if (!layers.ok()) return Fail(layers.status().WithContext("decomposition"));
  for (const auto& [name, value] : InsertGrowth(*workload)) {
    (*layers)[name] = value;
  }

  // Traced-load counters.
  double frames = 0, bytes = 0, timeouts = 0, wait_ns = 0;
  std::vector<double> client_self_us;
  if (!o.trace_out.empty()) std::ofstream(o.trace_out, std::ios::trunc);
  for (int s = 0; s < sessions; ++s) {
    SessionTrace* t = traced.served->trace(s);
    frames += static_cast<double>(t->frames_out.load());
    bytes += static_cast<double>(t->bytes_out.load());
    timeouts += static_cast<double>(t->idle_read_timeouts.load());
    wait_ns += static_cast<double>(t->client_wait_ns.load());
    std::map<int32_t, std::vector<Span>> children;
    for (const Span& span : t->client_spans) {
      if (span.parent >= 0) children[span.parent].push_back(span);
    }
    for (size_t i = 0; i < t->client_spans.size(); ++i) {
      if (t->client_spans[i].parent >= 0) continue;
      client_self_us.push_back(
          static_cast<double>(SelfTimeNs(t->client_spans[i],
                                         children[static_cast<int32_t>(i)])) /
          1000.0);
    }
    if (!o.trace_out.empty()) {
      WriteSpans(o.trace_out, t->client_spans, "client");
      WriteSpans(o.trace_out, t->server_spans, "server");
    }
  }
  if (!o.trace_out.empty()) {
    WriteSpans(o.trace_out, decomposition_spans, "replay");
  }
  double latency_ns = 0, write_latency_ns = 0;
  for (double us : load.read_us) latency_ns += us * 1000;
  for (double us : load.write_us) write_latency_ns += us * 1000;
  latency_ns += write_latency_ns;
  const double stmts = static_cast<double>(load.planned);
  const double writes = static_cast<double>(load.acked.size());
  Summary plain_summary, traced_summary;
  plain_summary.Add(plain.load);
  traced_summary.Add(load);
  const double plain_rate = plain_summary.stmts_per_s();
  const double traced_rate = traced_summary.stmts_per_s();
  std::vector<double> plain_writes = plain.load.write_us;
  std::sort(plain_writes.begin(), plain_writes.end());
  auto write_q = [&](double q) {
    return Supports(plain_writes.size(), q) ? QuantileSorted(plain_writes, q)
                                            : 0.0;
  };
  PrintSamples("writes (untraced)", plain_writes);

  std::vector<Metric> metrics = {
      {"server.frames_out_per_stmt", frames / stmts, "frames"},
      {"server.bytes_out_per_stmt", bytes / stmts, "bytes"},
      {"server.client_wait_us", wait_ns / stmts / 1000, "us"},
      {"server.client_wait_share", latency_ns > 0 ? wait_ns / latency_ns : 0,
       "ratio"},
      {"server.idle_read_timeouts", timeouts, "count"},
      {"wire.client_self_us", Mean(client_self_us), "us"},
      {"store.fsyncs_per_write", writes > 0 ? syncs / writes : 0, "count"},
      {"store.appends_per_write", writes > 0 ? appends / writes : 0, "count"},
      {"store.sync_us", syncs > 0 ? sync_ns / syncs / 1000 : 0, "us"},
      {"store.sync_share",
       write_latency_ns > 0 ? sync_ns / write_latency_ns : 0, "ratio"},
      {"store.bytes_per_user_byte",
       load.write_text_bytes > 0
           ? append_bytes / static_cast<double>(load.write_text_bytes)
           : 0,
       "ratio"},
      {"write_p50_us", write_q(0.5), "us"},
      {"write_p99_us", write_q(0.99), "us"},
      {"samples.read", static_cast<double>(plain.load.read_us.size()),
       "count"},
      {"samples.write", static_cast<double>(plain_writes.size()), "count"},
      {"trace.stmts_per_s_untraced", plain_rate, "stmts/s"},
      {"trace.stmts_per_s_traced", traced_rate, "stmts/s"},
      {"trace.overhead_pct", (plain_rate - traced_rate) / plain_rate * 100,
       "%"},
  };
  for (const auto& [name, value] : *layers) {
    std::string unit = "us";
    if (name == "wire.bytes_per_row") unit = "bytes";
    if (name == "relational.insert_growth") unit = "ratio";
    metrics.push_back({name, value, unit});
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace dmxbench

int main(int argc, char** argv) {
  using namespace dmxbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: dmxbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
                 "[--break-oracle] | --selftest\n");
    return 2;
  }
  if (o.selftest) return SelfTest() ? 0 : 1;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "dmxbench: refusing to report from an unoptimised "
                       "build (build type %s)\n", DMXBENCH_BUILD_TYPE);
  return 2;
#endif
  std::unique_ptr<Workload> workload =
      MakeWorkload(o.workload, o.seed,
                   static_cast<double>(o.seconds) / kLoads);
  if (workload == nullptr) {
    std::fprintf(stderr, "dmxbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  PrintHost(o, *workload);
  return o.trace ? RunTraced(o, workload.get())
                 : RunEndToEnd(o, workload.get());
}
