// F1 — Figure 1: the provider stack. The paper's architecture routes every
// consumer interaction through one command pipe (consumer -> OLE DB DM
// provider -> relational engine). This harness measures the latency of each
// layer of that stack with google-benchmark: command classification+parse,
// relational query execution, shaping, model training, per-case prediction
// and content browsing — the cost decomposition of a Figure-1 round trip.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/dmx_parser.h"
#include "relational/sql_executor.h"
#include "shape/shape_executor.h"
#include "shape/shape_parser.h"

namespace dmx {
namespace {

// Shared fixture state: one provider with a 1000-customer warehouse and a
// trained model, built once.
struct Stack {
  Provider provider;
  std::unique_ptr<Connection> conn;

  Stack() {
    conn = provider.Connect();
    bench::SetupWarehouses(&provider, 1000, 200);
    bench::MustExecute(conn.get(),
                       bench::AgeModelDmx("M", "Naive_Bayes"));
    bench::MustExecute(conn.get(), bench::AgeInsertDmx("M", "Customers",
                                                       "Sales"));
  }
};

Stack* stack = nullptr;

constexpr const char* kPredictionJoin = R"(
  SELECT t.[Customer ID], Predict([Age]) AS P FROM [M]
  NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID], [Gender] FROM TestCustomers
            ORDER BY [Customer ID]}
     APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM TestSales
              ORDER BY [CustID]}
             RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

void BM_ParseAndClassify_Create(benchmark::State& state) {
  std::string command = bench::AgeModelDmx("M", "Naive_Bayes");
  for (auto _ : state) {
    auto parsed = ParseDmx(command);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseAndClassify_Create);

void BM_ParseAndClassify_PredictionJoin(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = ParseDmx(kPredictionJoin);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseAndClassify_PredictionJoin);

void BM_RelationalLayer_Select(benchmark::State& state) {
  for (auto _ : state) {
    auto result = rel::ExecuteSql(
        stack->provider.database(),
        "SELECT [Customer ID], [Gender], [Age] FROM Customers "
        "ORDER BY [Customer ID]");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RelationalLayer_Select);

void BM_ShapingLayer_Caseset(benchmark::State& state) {
  auto stmt = shape::ParseShape(R"(
    SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers
           ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
             ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  for (auto _ : state) {
    auto result = shape::ExecuteShape(*stack->provider.database(), *stmt);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ShapingLayer_Caseset);

void BM_MiningLayer_TrainRefresh(benchmark::State& state) {
  // Incremental refresh: one full warehouse pass through the NB learner.
  std::string insert = bench::AgeInsertDmx("M", "Customers", "Sales");
  for (auto _ : state) {
    bench::MustExecute(stack->conn.get(), insert);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MiningLayer_TrainRefresh);

void BM_FullStack_PredictionJoin(benchmark::State& state) {
  for (auto _ : state) {
    Rowset result = bench::MustExecute(stack->conn.get(), kPredictionJoin);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FullStack_PredictionJoin);

void BM_BrowseLayer_Content(benchmark::State& state) {
  for (auto _ : state) {
    Rowset result = bench::MustExecute(stack->conn.get(),
                                       "SELECT * FROM [M].CONTENT");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BrowseLayer_Content);

void BM_SchemaRowset_Services(benchmark::State& state) {
  for (auto _ : state) {
    Rowset result = bench::MustExecute(
        stack->conn.get(), "SELECT * FROM $system.DMSCHEMA_MINING_SERVICES");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SchemaRowset_Services);

}  // namespace
}  // namespace dmx

int main(int argc, char** argv) {
  dmx::bench::Banner(
      "F1", "Figure 1 (provider architecture)",
      "parse cost is microseconds; shaping and training dominate a Figure-1 "
      "round trip; prediction joins amortize to sub-millisecond per case");
  dmx::stack = new dmx::Stack();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  delete dmx::stack;
  return 0;
}
