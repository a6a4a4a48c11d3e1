// R1 — sharded recovery: OpenStore latency against a store holding many
// trained models, serial (recovery_threads=1) vs parallel (recovery_threads=0,
// hardware concurrency). Each model lives in its own WAL shard whose blob is
// deserialized by the recovery scan workers, so the parallel column should
// beat the serial one once the model count clears the thread count. Run via
// tools/run_bench.sh, which captures the google-benchmark JSON as
// BENCH_recovery.json — real_time per reopen is the tracked figure.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_util.h"
#include "common/env.h"
#include "common/string_util.h"
#include "store/store.h"

namespace dmx {
namespace {

/// Store directories prebuilt in main(), keyed by model count.
std::map<int, std::string>* g_dirs = nullptr;

void WipeDir(const std::string& dir) {
  Env* env = Env::Default();
  const std::string quarantine = dir + "/quarantine";
  auto qnames = env->ListDir(quarantine);
  if (qnames.ok()) {
    for (const std::string& f : *qnames) {
      (void)env->DeleteFile(quarantine + "/" + f);
    }
  }
  auto names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : *names) (void)env->DeleteFile(dir + "/" + f);
  }
}

/// Builds a store with `models` trained Clustering models sharing one
/// training table. Every model's blob lands in its own shard, so reopening
/// replays `models` + 1 shards.
void BuildStore(const std::string& dir, int models) {
  WipeDir(dir);
  Provider provider;
  bench::Check(provider.OpenStore(dir), "open store for build");
  auto conn = provider.Connect();
  bench::MustExecute(conn.get(),
                     "CREATE TABLE Train ([Id] LONG, [F0] DOUBLE, "
                     "[F1] DOUBLE, [F2] DOUBLE, [F3] DOUBLE, [F4] DOUBLE, "
                     "[Loyalty] LONG)");
  std::string insert = "INSERT INTO Train VALUES ";
  for (int r = 0; r < 240; ++r) {
    if (r > 0) insert += ", ";
    insert += StrCat("(", std::to_string(r));
    for (int c = 0; c < 5; ++c) {
      insert += ", " + std::to_string(((r * 7 + c * 13) % 97) / 9.7);
    }
    insert += ", " + std::to_string(r % 2) + ")";
  }
  bench::MustExecute(conn.get(), insert);
  // 8-cluster models over five continuous features: the serialized blob is
  // big enough that deserializing it is the dominant per-shard cost — the
  // work the recovery scan pool parallelizes.
  for (int m = 0; m < models; ++m) {
    const std::string name = StrCat("R", std::to_string(m));
    bench::MustExecute(conn.get(),
                       "CREATE MINING MODEL [" + name +
                           "] ([K] LONG KEY, [F0] DOUBLE CONTINUOUS, "
                           "[F1] DOUBLE CONTINUOUS, [F2] DOUBLE CONTINUOUS, "
                           "[F3] DOUBLE CONTINUOUS, [F4] DOUBLE CONTINUOUS, "
                           "[Loyalty] LONG DISCRETE PREDICT) "
                           "USING Clustering(CLUSTER_COUNT = 8, SEED = " +
                           std::to_string(7 + m) + ")");
    bench::MustExecute(conn.get(),
                       "INSERT INTO [" + name +
                           "] SELECT Id, F0, F1, F2, F3, F4, Loyalty "
                           "FROM Train");
  }
}

/// One iteration = one cold OpenStore (snapshot load + shard scan + replay).
void BM_Reopen(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const std::string& dir = (*g_dirs)[models];
  for (auto _ : state) {
    Provider provider;
    store::StoreOptions options;
    options.recovery_threads = threads;
    Status open = provider.OpenStore(dir, options);
    if (!open.ok()) {
      state.SkipWithError(open.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(provider.store()->recovery_report().size());
  }
  state.SetItemsProcessed(state.iterations() * models);
  state.counters["models"] = models;
  state.counters["recovery_threads"] = threads;
}
// range(1): 1 = serial replay, 0 = hardware concurrency (capped at 8).
BENCHMARK(BM_Reopen)
    ->Args({25, 1})
    ->Args({25, 0})
    ->Args({100, 1})
    ->Args({100, 0})
    ->Args({200, 1})
    ->Args({200, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dmx

int main(int argc, char** argv) {
  dmx::bench::Banner(
      "R1", "Sharded recovery (parallel replay latency)",
      "reopen latency grows with model count; recovery_threads=0 (parallel "
      "scan) beats recovery_threads=1 (serial) on multi-model stores");

  std::map<int, std::string> dirs;
  for (int models : {25, 100, 200}) {
    std::string dir =
        "/tmp/dmx_bench_recovery_store_" + std::to_string(models);
    dmx::BuildStore(dir, models);
    dirs[models] = dir;
  }
  dmx::g_dirs = &dirs;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
