// Concurrent sessions: one Provider, many threads, mixed DDL/DML/SELECT.
// The catalog lock regime must keep every interleaving linearizable (no
// crashes, no torn reads), the journal must stay serialized so a store-backed
// provider recovers to a consistent catalog, and a deadline-armed statement
// must unwind promptly while other sessions keep executing. Run under
// -DDMX_SANITIZE=thread in CI to prove the locking, not just test it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/string_util.h"
#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

constexpr int kThreads = 8;

void WipeDir(const std::string& dir) {
  Env* env = Env::Default();
  auto names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : *names) (void)env->DeleteFile(dir + "/" + f);
  }
}

// Per-thread workload: private tables and a model (T<i>, R<i> / M<i>), so
// DDL never races on names, plus reads of *other* threads' tables to force
// genuine reader/writer interleavings. Tolerated failures: kNotFound (the
// other thread hasn't created its table yet / already dropped the model) and
// kInvalidState (its model exists but isn't trained yet).
void RunSession(Provider* provider, int id, std::atomic<int>* failures) {
  auto conn = provider->Connect();
  const std::string table = "T" + std::to_string(id);
  const std::string model = "M" + std::to_string(id);
  auto must = [&](const std::string& statement) {
    auto result = conn->Execute(statement);
    if (!result.ok()) {
      ADD_FAILURE() << "thread " << id << ": " << statement << " -> "
                    << result.status().ToString();
      failures->fetch_add(1);
    }
  };

  // A range SELECT on an in-order column is narrowed by binary search; its
  // row count is known here because only this thread writes its tables.
  auto expect_rows = [&](const std::string& statement, size_t rows) {
    auto result = conn->Execute(statement);
    if (!result.ok() || result->num_rows() != rows) {
      ADD_FAILURE() << "thread " << id << ": " << statement << " -> "
                    << (result.ok() ? std::to_string(result->num_rows()) +
                                          " rows, expected " +
                                          std::to_string(rows)
                                    : result.status().ToString());
      failures->fetch_add(1);
    }
  };
  const std::string ranged = "R" + std::to_string(id);

  must("CREATE TABLE [" + table + "] ([Id] LONG, [X] DOUBLE, [Y] LONG)");
  must("CREATE TABLE [" + ranged + "] ([Id] LONG, [V] LONG)");
  for (int round = 0; round < 5; ++round) {
    // DML burst: six rows per round, in [Id] order except in round 3, whose
    // rows arrive reversed and clear [Id]'s in-order bit for good.
    std::string insert = "INSERT INTO [" + table + "] VALUES ";
    for (int r = 0; r < 6; ++r) {
      int id_value = round * 6 + (round == 3 ? 5 - r : r);
      if (r > 0) insert += ", ";
      insert += StrCat("(", std::to_string(id_value), ", ",
                       std::to_string(id_value % 7), ".5, ",
                       std::to_string(id_value % 3), ")");
    }
    must(insert);
    must("SELECT [Id], [X] FROM [" + table + "] ORDER BY [Id]");
    expect_rows("SELECT [Id] FROM [" + table + "] WHERE [Id] >= " +
                    std::to_string(round * 6 + 1) + " AND [Id] < " +
                    std::to_string(round * 6 + 5),
                4);

    // [R<i>]'s in-order bit flips every round: the DELETE sets it, the
    // first INSERT keeps it and the second clears it. Range SELECTs read
    // the table in both states, here and from the neighbour thread.
    must("DELETE FROM [" + ranged + "]");
    must("INSERT INTO [" + ranged + "] VALUES (1, 1), (2, 2), (3, 3)");
    expect_rows("SELECT [V] FROM [" + ranged + "] WHERE [Id] >= 2", 2);
    must("INSERT INTO [" + ranged + "] VALUES (0, 4)");
    expect_rows("SELECT [V] FROM [" + ranged + "] WHERE [Id] < 2", 2);

    // Cross-thread read: whatever state the neighbour's table is in, the
    // read must return a Status, never crash or see a torn row.
    const std::string other = "T" + std::to_string((id + 1) % kThreads);
    auto peek = conn->Execute("SELECT COUNT(*) AS N FROM [" + other + "]");
    if (!peek.ok() && !peek.status().IsNotFound()) {
      ADD_FAILURE() << "thread " << id << " peek: "
                    << peek.status().ToString();
      failures->fetch_add(1);
    }
    const std::string other_ranged = "R" + std::to_string((id + 1) % kThreads);
    auto range_peek = conn->Execute("SELECT [V] FROM [" + other_ranged +
                                    "] WHERE [Id] > 0 AND [Id] <= 2");
    if (!range_peek.ok() && !range_peek.status().IsNotFound()) {
      ADD_FAILURE() << "thread " << id << " range peek: "
                    << range_peek.status().ToString();
      failures->fetch_add(1);
    }

    if (round == 1) {
      must("CREATE MINING MODEL [" + model +
           "] ([Id] LONG KEY, [X] DOUBLE DISCRETIZED, [Y] LONG DISCRETE "
           "PREDICT) USING Naive_Bayes");
    }
    if (round >= 2) {
      // Refresh-train on the growing table, then predict.
      must("INSERT INTO [" + model + "] SELECT [Id], [X], [Y] FROM [" +
           table + "]");
      must("SELECT Predict([Y]) FROM [" + model +
           "] NATURAL PREDICTION JOIN (SELECT [Id], [X] FROM [" + table +
           "]) AS s");
    }
    // Schema rowsets take the shared lock like any other read.
    auto models =
        conn->Execute("SELECT MODEL_NAME FROM $system.DMSCHEMA_MINING_MODELS");
    if (!models.ok()) {
      ADD_FAILURE() << "thread " << id << ": " << models.status().ToString();
      failures->fetch_add(1);
    }
  }
  must("DELETE FROM [" + table + "] WHERE [Id] >= 24");
}

TEST(ConcurrencyTest, MixedSessionsOnStoreBackedProviderRecover) {
  const std::string dir = ::testing::TempDir() + "/concurrency_store";
  WipeDir(dir);

  std::vector<size_t> row_counts(kThreads);
  {
    Provider provider;
    store::StoreOptions options;
    options.auto_checkpoint_interval = 32;
    ASSERT_TRUE(provider.OpenStore(dir, options).ok());

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(RunSession, &provider, t, &failures);
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);

    auto conn = provider.Connect();
    for (int t = 0; t < kThreads; ++t) {
      auto rows =
          conn->Execute("SELECT * FROM [T" + std::to_string(t) + "]");
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->num_rows(), 24u);  // 30 inserted, 6 deleted
      row_counts[t] = rows->num_rows();
      auto model = provider.models()->GetModel("M" + std::to_string(t));
      ASSERT_TRUE(model.ok());
      EXPECT_TRUE((*model)->is_trained());
    }
  }

  // Whatever the interleaving, the journal the session wrote must replay
  // into exactly the catalog the threads left behind.
  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  auto conn = reopened.Connect();
  for (int t = 0; t < kThreads; ++t) {
    const std::string table = "T" + std::to_string(t);
    auto rows = conn->Execute("SELECT * FROM [" + table + "]");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->num_rows(), row_counts[t]) << table;
    auto model = reopened.models()->GetModel("M" + std::to_string(t));
    ASSERT_TRUE(model.ok());
    EXPECT_TRUE((*model)->is_trained());
    auto predict = conn->Execute(
        "SELECT Predict([Y]) FROM [M" + std::to_string(t) +
        "] NATURAL PREDICTION JOIN (SELECT [Id], [X] FROM [" + table +
        "]) AS s");
    EXPECT_TRUE(predict.ok()) << predict.status().ToString();
  }
}

// Checkpoints, schema rowsets and statements all contend for the catalog
// lock; hammering them together must stay race-free (the TSan target).
TEST(ConcurrencyTest, CheckpointsInterleaveWithStatements) {
  const std::string dir = ::testing::TempDir() + "/concurrency_checkpoint";
  WipeDir(dir);
  Provider provider;
  ASSERT_TRUE(provider.OpenStore(dir).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread checkpointer([&] {
    while (!stop.load()) {
      Status s = provider.Checkpoint();
      if (!s.ok()) {
        ADD_FAILURE() << s.ToString();
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      auto conn = provider.Connect();
      const std::string table = "W" + std::to_string(t);
      auto result =
          conn->Execute("CREATE TABLE [" + table + "] ([A] LONG)");
      if (!result.ok()) failures.fetch_add(1);
      for (int i = 0; i < 25; ++i) {
        auto insert = conn->Execute("INSERT INTO [" + table + "] VALUES (" +
                                    std::to_string(i) + ")");
        if (!insert.ok()) failures.fetch_add(1);
        auto select = conn->Execute("SELECT COUNT(*) AS N FROM [" + table +
                                    "]");
        if (!select.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  checkpointer.join();
  EXPECT_EQ(failures.load(), 0);

  auto conn = provider.Connect();
  for (int t = 0; t < 4; ++t) {
    auto rows = conn->Execute("SELECT * FROM [W" + std::to_string(t) + "]");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->num_rows(), 25u);
  }
}

// A deadline-armed statement must come back as kDeadlineExceeded within 2x
// its deadline even while other sessions hold shared locks and keep
// executing — the trip happens at a checkpoint inside the running join, not
// after it finishes.
TEST(ConcurrencyTest, DeadlineTripsPromptlyUnderConcurrentLoad) {
  Provider provider;
  datagen::WarehouseConfig config;
  // The guarded statement below is a quadratic self-join over Sales: the
  // warehouse must be big enough that it cannot finish inside the deadline
  // on a fast machine, or the test flakes on "statement succeeded".
  config.num_customers = 400;
  ASSERT_TRUE(datagen::PopulateWarehouse(provider.database(), config).ok());

  constexpr int64_t kDeadlineMs = 250;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<int> reader_queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto conn = provider.Connect();
      while (!stop.load()) {
        auto result = conn->Execute(
            "SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]");
        if (!result.ok()) reader_failures.fetch_add(1);
        reader_queries.fetch_add(1);
      }
    });
  }

  auto conn = provider.Connect();
  ExecLimits limits;
  limits.deadline_ms = kDeadlineMs;
  conn->set_limits(limits);
  auto start = std::chrono::steady_clock::now();
  auto result = conn->Execute(
      "SELECT COUNT(*) AS N FROM Sales s INNER JOIN Sales t "
      "ON s.[CustID] < t.[CustID]");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  stop.store(true);
  for (auto& t : readers) t.join();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_LT(elapsed, 2 * kDeadlineMs)
      << "deadline unwind took " << elapsed << " ms";
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(reader_queries.load(), 0);
}

// Admission control under real contention: cap 2 active + 2 queued, fire 8
// statements at once. Every statement either executes or is rejected with
// kResourceExhausted — nothing hangs, nothing crashes, and at least the cap
// is admitted.
TEST(ConcurrencyTest, AdmissionControlBoundsConcurrentStatements) {
  Provider provider;
  provider.SetAdmissionLimits(/*max_active=*/2, /*max_queued=*/2);
  datagen::WarehouseConfig config;
  config.num_customers = 80;
  ASSERT_TRUE(datagen::PopulateWarehouse(provider.database(), config).ok());

  std::atomic<int> succeeded{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto conn = provider.Connect();
      auto result = conn->Execute(
          "SELECT [Customer ID], [Income] FROM Customers ORDER BY [Income]");
      if (result.ok()) {
        succeeded.fetch_add(1);
      } else if (result.status().IsResourceExhausted()) {
        rejected.fetch_add(1);
      } else {
        ADD_FAILURE() << result.status().ToString();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(succeeded.load() + rejected.load(), kThreads);
  EXPECT_GE(succeeded.load(), 2);
}

}  // namespace
}  // namespace dmx
