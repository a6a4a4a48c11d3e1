// Bounded systematic exploration of the DESIGN.md §9 lock regime under the
// deterministic scheduler (common/det_sched.h): small multi-threaded
// scenarios — DDL vs reads vs checkpoints, admission queue waits, guard
// cancellation — swept across hundreds of seed-enumerated schedules. Every
// schedule must complete without deadlock, without lockdep violations
// (violations abort: no handler is installed here) and with the catalog in
// the state the statements imply. Requires -DDMX_DEBUG_LOCKS=ON.

#include <gtest/gtest.h>

#include "common/mutex.h"

#ifndef DMX_DEBUG_LOCKS

namespace dmx {
namespace {

TEST(LockRegimeExploreTest, RequiresDebugLocksBuild) {
  GTEST_SKIP() << "det-sched exists only under -DDMX_DEBUG_LOCKS=ON "
                  "(cmake -B build-lockdep -DDMX_DEBUG_LOCKS=ON)";
}

}  // namespace
}  // namespace dmx

#else  // DMX_DEBUG_LOCKS

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/det_sched.h"
#include "common/env.h"
#include "common/lockdep.h"
#include "core/provider.h"

namespace dmx {
namespace {

void WipeDir(const std::string& dir) {
  Env* env = Env::Default();
  auto names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : *names) (void)env->DeleteFile(dir + "/" + f);
  }
}

/// Executes `statement` and records any failure (the scenario runs on
/// det-sched worker threads; gtest failure macros are thread-safe here).
void Must(Connection* conn, const std::string& statement) {
  auto result = conn->Execute(statement);
  if (!result.ok()) {
    ADD_FAILURE() << statement << " -> " << result.status().ToString();
  }
}

/// One schedule of the core scenario: a DDL/DML session, a reading session
/// and a checkpointer race on a store-backed provider. Returns the schedule
/// hash; fails the test on deadlock or any unexpected statement outcome.
uint64_t RunDdlQueryCheckpoint(Provider* provider, uint64_t seed) {
  detsched::Options options;
  options.seed = seed;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([provider] {
    auto conn = provider->Connect();
    Must(conn.get(), "CREATE TABLE [T] ([A] LONG)");
    Must(conn.get(), "INSERT INTO [T] VALUES (1), (2), (3)");
    Must(conn.get(), "DELETE FROM [T] WHERE [A] = 3");
  });
  bodies.push_back([provider] {
    auto conn = provider->Connect();
    for (int round = 0; round < 2; ++round) {
      // The table may not exist yet in this schedule; anything else is a
      // regime violation.
      auto count = conn->Execute("SELECT COUNT(*) AS N FROM [T]");
      if (!count.ok() && !count.status().IsNotFound()) {
        ADD_FAILURE() << count.status().ToString();
      }
      auto models = conn->Execute(
          "SELECT MODEL_NAME FROM $system.DMSCHEMA_MINING_MODELS");
      if (!models.ok()) ADD_FAILURE() << models.status().ToString();
    }
  });
  bodies.push_back([provider] {
    for (int round = 0; round < 2; ++round) {
      Status status = provider->Checkpoint();
      if (!status.ok()) ADD_FAILURE() << status.ToString();
    }
  });

  detsched::RunResult result =
      detsched::RunScenario(options, std::move(bodies));
  EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.failure;
  return result.schedule_hash;
}

/// Post-run invariant: whatever the schedule, the surviving catalog state is
/// the sequential outcome of the DDL thread's statements.
void CheckCatalogInvariant(Provider* provider) {
  auto conn = provider->Connect();
  auto rows = conn->Execute("SELECT * FROM [T]");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 2u);  // 3 inserted, 1 deleted
}

// The acceptance sweep: enumerate schedules of the DDL / query / checkpoint
// scenario until 500 distinct ones have run (same seed => same schedule, so
// distinct hashes == distinct schedules). Every schedule must be deadlock-
// and violation-free and leave the catalog consistent; every 50th run the
// store is reopened to prove the journal that schedule wrote replays.
TEST(LockRegimeExploreTest, DdlQueryCheckpointSweep) {
  const std::string dir = ::testing::TempDir() + "/explore_sweep";
  const uint64_t violations_before = lockdep::violation_count();

  std::unordered_set<uint64_t> distinct;
  std::unordered_map<uint64_t, uint64_t> hash_by_seed;
  constexpr size_t kTargetSchedules = 500;
  constexpr uint64_t kSeedBudget = 3000;
  uint64_t seed = 1;
  for (; seed <= kSeedBudget && distinct.size() < kTargetSchedules; ++seed) {
    WipeDir(dir);
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    uint64_t hash = RunDdlQueryCheckpoint(&provider, seed);
    if (HasFailure()) break;  // one diagnosed schedule beats 500 green ones
    distinct.insert(hash);
    hash_by_seed[seed] = hash;
    CheckCatalogInvariant(&provider);

    if (seed % 50 == 0) {
      Provider reopened;
      ASSERT_TRUE(reopened.OpenStore(dir).ok());
      CheckCatalogInvariant(&reopened);
    }
  }
  EXPECT_GE(distinct.size(), kTargetSchedules)
      << "only " << distinct.size() << " distinct schedules in " << seed - 1
      << " seeds";
  EXPECT_EQ(lockdep::violation_count(), violations_before);

  // Determinism spot-check: replaying a sampled seed reproduces its
  // schedule bit for bit.
  for (uint64_t replay : {uint64_t{1}, uint64_t{101}, uint64_t{401}}) {
    auto it = hash_by_seed.find(replay);
    if (it == hash_by_seed.end()) continue;
    WipeDir(dir);
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    EXPECT_EQ(RunDdlQueryCheckpoint(&provider, replay), it->second)
        << "seed " << replay << " replayed to a different schedule";
  }
}

// Same seed, same schedule — checked exhaustively on an in-memory scenario
// (no store I/O in the loop), across several seeds and repeated runs.
TEST(LockRegimeExploreTest, SameSeedReproducesSameSchedule) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    uint64_t first_hash = 0;
    for (int repeat = 0; repeat < 3; ++repeat) {
      Provider provider;
      detsched::Options options;
      options.seed = seed;
      std::vector<std::function<void()>> bodies;
      bodies.push_back([&provider] {
        auto conn = provider.Connect();
        Must(conn.get(), "CREATE TABLE [D] ([A] LONG)");
        Must(conn.get(), "INSERT INTO [D] VALUES (1), (2)");
      });
      bodies.push_back([&provider] {
        auto conn = provider.Connect();
        auto rows = conn->Execute("SELECT COUNT(*) AS N FROM [D]");
        if (!rows.ok() && !rows.status().IsNotFound()) {
          ADD_FAILURE() << rows.status().ToString();
        }
      });
      detsched::RunResult result =
          detsched::RunScenario(options, std::move(bodies));
      ASSERT_TRUE(result.ok) << result.failure;
      if (repeat == 0) {
        first_hash = result.schedule_hash;
      } else {
        EXPECT_EQ(result.schedule_hash, first_hash) << "seed " << seed;
      }
    }
  }
}

// Admission waits under the scheduler: 3 statements against a cap of
// 1 active + 2 queued. In every schedule all three eventually execute —
// the queue poll loop must neither deadlock the cooperative world nor be
// reported as a deadlock (it is a timed wait, not a blocked acquisition).
TEST(LockRegimeExploreTest, AdmissionQueueDrainsOnEverySchedule) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Provider provider;
    provider.SetAdmissionLimits(/*max_active=*/1, /*max_queued=*/2);
    {
      auto conn = provider.Connect();
      Must(conn.get(), "CREATE TABLE [Q] ([A] LONG)");
      Must(conn.get(), "INSERT INTO [Q] VALUES (1), (2), (3)");
    }

    detsched::Options options;
    options.seed = seed;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 3; ++i) {
      bodies.push_back([&provider] {
        auto conn = provider.Connect();
        // With queue room for everyone, rejection would be a regime bug.
        Must(conn.get(), "SELECT COUNT(*) AS N FROM [Q]");
      });
    }
    detsched::RunResult result =
        detsched::RunScenario(options, std::move(bodies));
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure;
  }
}

// Guard cancellation racing a writer: the cancelled statement must unwind
// cleanly (ok if it won the race, kCancelled otherwise) on every schedule,
// and the uncancelled writer must always complete.
TEST(LockRegimeExploreTest, CancellationUnwindsOnEverySchedule) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Provider provider;
    {
      auto conn = provider.Connect();
      Must(conn.get(), "CREATE TABLE [C] ([A] LONG)");
      Must(conn.get(), "INSERT INTO [C] VALUES (1), (2), (3), (4)");
    }

    auto token = std::make_shared<CancelToken>();
    detsched::Options options;
    options.seed = seed;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&provider, token] {
      auto conn = provider.Connect();
      ExecLimits limits;
      limits.cancel = token;
      conn->set_limits(limits);
      auto result = conn->Execute("SELECT [A] FROM [C] ORDER BY [A]");
      if (!result.ok() && !result.status().IsCancelled()) {
        ADD_FAILURE() << result.status().ToString();
      }
    });
    bodies.push_back([&provider] {
      auto conn = provider.Connect();
      Must(conn.get(), "INSERT INTO [C] VALUES (5), (6)");
      Must(conn.get(), "DELETE FROM [C] WHERE [A] = 1");
    });
    bodies.push_back([token] { token->Cancel(); });

    detsched::RunResult result =
        detsched::RunScenario(options, std::move(bodies));
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure;

    auto conn = provider.Connect();
    auto rows = conn->Execute("SELECT * FROM [C]");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->num_rows(), 5u);  // 4 + 2 inserted, 1 deleted
  }
}

// CI smoke preset: a 20-seed slice of the core scenario, sized for the
// sanitizer jobs (TSan multiplies runtime ~10x; the full sweep lives in the
// dedicated lockdep job).
TEST(LockRegimeExploreTest, SmokeSweep) {
  const std::string dir = ::testing::TempDir() + "/explore_smoke";
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    WipeDir(dir);
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    RunDdlQueryCheckpoint(&provider, seed);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
    CheckCatalogInvariant(&provider);
  }
}

}  // namespace
}  // namespace dmx

#endif  // DMX_DEBUG_LOCKS
