// Execution guards: deadlines, cooperative cancellation and row budgets must
// trip at checkpoints inside every executor and every mining service's
// training/prediction hot loops, unwind with the right status code and
// context frames, and leave the catalogs exactly as they were. Admission
// control is unit-tested directly for its accept/queue/reject semantics.

#include "common/exec_guard.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/admission.h"
#include "core/provider.h"
#include "datagen/warehouse.h"
#include "pmml/pmml.h"
#include "service_cases.h"

namespace dmx {
namespace {

// ---------------------------------------------------------------------------
// ExecGuard unit behaviour
// ---------------------------------------------------------------------------

TEST(ExecGuardTest, UnarmedGuardNeverTrips) {
  ExecGuard guard{ExecLimits{}};
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.ChargeOutputRows(1 << 20).ok());
  EXPECT_TRUE(guard.ChargeWorkingSet(1 << 20).ok());
}

TEST(ExecGuardTest, CancelTokenTripsCheck) {
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  ExecGuard guard(limits);
  EXPECT_TRUE(guard.Check().ok());
  limits.cancel->Cancel();
  Status s = guard.Check();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
}

TEST(ExecGuardTest, DeadlineTripsAfterExpiry) {
  ExecLimits limits;
  limits.deadline_ms = 1;
  ExecGuard guard(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status s = guard.Check();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST(ExecGuardTest, OutputRowBudgetTrips) {
  ExecLimits limits;
  limits.max_output_rows = 3;
  ExecGuard guard(limits);
  EXPECT_TRUE(guard.ChargeOutputRows(3).ok());
  Status s = guard.ChargeOutputRows(1);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
}

TEST(ExecGuardTest, WorkingSetBudgetTrips) {
  ExecLimits limits;
  limits.max_working_set_rows = 10;
  ExecGuard guard(limits);
  EXPECT_TRUE(guard.ChargeWorkingSet(10).ok());
  Status s = guard.ChargeWorkingSet(1);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
}

TEST(ExecGuardTest, FreeHelpersAreNoOpsWithoutScope) {
  ASSERT_EQ(CurrentExecGuard(), nullptr);
  EXPECT_TRUE(GuardCheck().ok());
  EXPECT_TRUE(GuardChargeOutputRows(1 << 30).ok());
  EXPECT_TRUE(GuardChargeWorkingSet(1 << 30).ok());
}

TEST(ExecGuardTest, ScopeInstallsAndRestores) {
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  ExecGuard outer(limits);
  {
    ExecGuardScope outer_scope(&outer);
    EXPECT_EQ(CurrentExecGuard(), &outer);
    EXPECT_TRUE(GuardCheck().IsCancelled());
    ExecGuard inner{ExecLimits{}};
    {
      ExecGuardScope inner_scope(&inner);
      EXPECT_EQ(CurrentExecGuard(), &inner);
      EXPECT_TRUE(GuardCheck().ok());  // innermost wins
    }
    EXPECT_EQ(CurrentExecGuard(), &outer);
  }
  EXPECT_EQ(CurrentExecGuard(), nullptr);
}

// ---------------------------------------------------------------------------
// AdmissionController unit behaviour
// ---------------------------------------------------------------------------

TEST(AdmissionTest, DisabledByDefault) {
  AdmissionController admission;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.Admit(nullptr).ok());
  }
}

TEST(AdmissionTest, RejectsBeyondQueue) {
  AdmissionController admission;
  admission.SetLimits(/*max_active=*/1, /*max_queued=*/0);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  EXPECT_EQ(admission.active(), 1u);
  // Slot taken, queue size 0: fail fast.
  Status s = admission.Admit(nullptr);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  admission.Release();
  EXPECT_EQ(admission.active(), 0u);
  EXPECT_TRUE(admission.Admit(nullptr).ok());
  admission.Release();
}

TEST(AdmissionTest, QueuedStatementRunsWhenSlotFrees) {
  AdmissionController admission;
  admission.SetLimits(/*max_active=*/1, /*max_queued=*/1);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  Status queued = Status::OK();
  std::thread waiter([&] {
    queued = admission.Admit(nullptr);
    if (queued.ok()) admission.Release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  admission.Release();
  waiter.join();
  EXPECT_TRUE(queued.ok()) << queued.ToString();
  EXPECT_EQ(admission.active(), 0u);
}

TEST(AdmissionTest, QueuedStatementHonoursCancellation) {
  AdmissionController admission;
  admission.SetLimits(/*max_active=*/1, /*max_queued=*/1);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  ExecGuard guard(limits);
  // Queue has room, but the guard is already cancelled: the wait must abort
  // with kCancelled instead of blocking until the slot frees.
  Status s = admission.Admit(&guard);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  admission.Release();
}

TEST(AdmissionTest, ProviderRejectsWhenSaturated) {
  Provider provider;
  provider.SetAdmissionLimits(/*max_active=*/1, /*max_queued=*/0);
  datagen::WarehouseConfig config;
  config.num_customers = 50;
  ASSERT_TRUE(datagen::PopulateWarehouse(provider.database(), config).ok());

  // Hold the single slot with a statement parked on an uncancelled token by
  // running it from another thread against a cold catalog lock: simplest is
  // to saturate via a slow SELECT in a second thread, but a deterministic
  // variant drives the controller through the provider by nesting — so here
  // we assert the plumbing end-to-end with a burst of concurrent SELECTs and
  // require at least one rejection OR all successes with cap 1 (they may
  // serialize). With max_queued=0 and 8 simultaneous statements, at least
  // one rejection is overwhelmingly likely; tolerate the lucky case.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> rejected{0};
  std::atomic<int> succeeded{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto conn = provider.Connect();
      auto result = conn->Execute(
          "SELECT [Customer ID], [Age] FROM Customers ORDER BY [Age]");
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
  EXPECT_EQ(rejected.load() + succeeded.load(), kThreads);
  EXPECT_GE(succeeded.load(), 1);
}

// ---------------------------------------------------------------------------
// Guard checkpoints inside every registered mining service
// ---------------------------------------------------------------------------

using testutil::ServiceCase;
using testutil::kServices;

// The table must not silently fall behind the registry: every registered
// service (and the alias) appears exactly once.
TEST(ExecGuardServiceTable, CoversEveryRegisteredService) {
  Provider provider;
  std::vector<std::string> names = provider.services()->ListServices();
  names.push_back("Decision_Trees_101");
  for (const std::string& name : names) {
    int covered = 0;
    for (const ServiceCase& sc : kServices) {
      if (name == sc.name) ++covered;
    }
    EXPECT_EQ(covered, 1) << "service '" << name
                          << "' missing from kServices";
  }
}

class GuardedServiceTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    datagen::WarehouseConfig config;
    config.num_customers = 120;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), config).ok());
    conn_ = provider_.Connect();
  }

  void Arm(std::shared_ptr<CancelToken> token) {
    ExecLimits limits;
    limits.cancel = std::move(token);
    conn_->set_limits(limits);
  }

  void Disarm() { conn_->set_limits(ExecLimits{}); }

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

// Cancel mid-training: a pre-fired token trips at the first checkpoint
// inside the training pipeline. The statement must unwind with kCancelled,
// name the phase in its context, and leave the model untrained — and the
// same statement must succeed once the token is disarmed.
TEST_P(GuardedServiceTest, CancelMidTrainingUnwindsCleanly) {
  const ServiceCase& sc = kServices[GetParam()];
  ASSERT_TRUE(conn_->Execute(sc.create).ok());

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  Arm(token);
  auto result = conn_->Execute(sc.insert);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();

  // Clean unwind: the model survives in the catalog, still untrained.
  auto model = provider_.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE((*model)->is_trained());

  // The cancelled statement left nothing behind: training now succeeds and
  // predictions flow.
  Disarm();
  auto retrain = conn_->Execute(sc.insert);
  ASSERT_TRUE(retrain.ok()) << sc.name << ": " << retrain.status().ToString();
  EXPECT_TRUE((*provider_.models()->GetModel("P"))->is_trained());
  auto predict = conn_->Execute(sc.query);
  ASSERT_TRUE(predict.ok()) << sc.name << ": " << predict.status().ToString();
  EXPECT_GT(predict->num_rows(), 0u);
}

// Cancel mid-prediction: train first, then fire the token. The prediction
// must unwind with kCancelled without touching the trained model.
TEST_P(GuardedServiceTest, CancelMidPredictionUnwindsCleanly) {
  const ServiceCase& sc = kServices[GetParam()];
  ASSERT_TRUE(conn_->Execute(sc.create).ok());
  auto trained = conn_->Execute(sc.insert);
  ASSERT_TRUE(trained.ok()) << sc.name << ": " << trained.status().ToString();

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  Arm(token);
  auto result = conn_->Execute(sc.query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();

  // The model is untouched: disarm and the same query runs.
  Disarm();
  EXPECT_TRUE((*provider_.models()->GetModel("P"))->is_trained());
  auto predict = conn_->Execute(sc.query);
  ASSERT_TRUE(predict.ok()) << sc.name << ": " << predict.status().ToString();
  EXPECT_GT(predict->num_rows(), 0u);
}

// Refresh training on an already-trained model: a cancelled refresh must
// roll the model back to its previous trained state, not leave a torn one.
TEST_P(GuardedServiceTest, CancelMidRefreshRestoresPreviousModel) {
  const ServiceCase& sc = kServices[GetParam()];
  ASSERT_TRUE(conn_->Execute(sc.create).ok());
  ASSERT_TRUE(conn_->Execute(sc.insert).ok());
  auto before = conn_->Execute(sc.query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  Arm(token);
  auto refresh = conn_->Execute(sc.insert);
  ASSERT_FALSE(refresh.ok());
  EXPECT_TRUE(refresh.status().IsCancelled()) << refresh.status().ToString();

  Disarm();
  auto model = provider_.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE((*model)->is_trained());
  auto after = conn_->Execute(sc.query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(before->num_rows(), after->num_rows());
  for (size_t r = 0; r < before->num_rows(); ++r) {
    for (size_t c = 0; c < before->num_columns(); ++c) {
      EXPECT_TRUE(before->at(r, c).Equals(after->at(r, c)))
          << sc.name << " row " << r << " col " << c;
    }
  }
}

// The kServices definition with a SUPPORT OF column added.
std::string WithSupportColumn(const char* create) {
  std::string out = create;
  out.insert(out.rfind(") USING"),
             ",\n[Weight] DOUBLE SUPPORT OF [Customer ID]");
  return out;
}

// The kServices training statement with a SUPPORT weight that turns
// negative on the last 20 of the 120 customers: binding fails only after
// 100 cases went in.
std::string WithLateNegativeWeight(const char* insert) {
  std::string out = insert;
  const std::string select = "SELECT [Customer ID]";
  out.insert(out.find(select) + select.size(),
             ", 100 - [Customer ID] AS [Weight]");
  return out;
}

// What a failed statement must leave as it was: the model's PMML and the
// cases it keeps for retraining.
std::string ModelState(Provider* provider) {
  auto model = provider->models()->GetModel("P");
  if (!model.ok()) return model.status().ToString();
  auto pmml = SerializeModel(**model);
  if (!pmml.ok()) return pmml.status().ToString();
  return *pmml + "\ncached_cases=" + std::to_string((*model)->cached_cases());
}

// A failed INSERT INTO changes nothing, with or without limits and on an
// untrained or a trained model; the next INSERT then trains as if the
// failed one never ran.
TEST_P(GuardedServiceTest, FailedInsertLeavesModelUnchanged) {
  const ServiceCase& sc = kServices[GetParam()];
  const std::string create = WithSupportColumn(sc.create);
  const std::string failing = WithLateNegativeWeight(sc.insert);
  for (bool guarded : {false, true}) {
    for (bool trained : {false, true}) {
      SCOPED_TRACE(std::string(sc.name) +
                   (guarded ? " guarded" : " unguarded") +
                   (trained ? " trained" : " untrained"));
      // `run` sees the failed INSERT; `reference` never does.
      Provider run;
      Provider reference;
      datagen::WarehouseConfig config;
      config.num_customers = 120;
      ASSERT_TRUE(datagen::PopulateWarehouse(run.database(), config).ok());
      ASSERT_TRUE(
          datagen::PopulateWarehouse(reference.database(), config).ok());
      auto conn = run.Connect();
      auto reference_conn = reference.Connect();
      if (guarded) {
        ExecLimits limits;
        limits.cancel = std::make_shared<CancelToken>();
        conn->set_limits(limits);
      }
      for (Connection* c : {conn.get(), reference_conn.get()}) {
        auto created = c->Execute(create);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        if (trained) {
          auto inserted = c->Execute(sc.insert);
          ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
        }
      }
      const std::string before = ModelState(&run);

      auto failed = conn->Execute(failing);
      ASSERT_FALSE(failed.ok()) << failing;
      EXPECT_TRUE(failed.status().IsInvalidArgument())
          << failed.status().ToString();
      EXPECT_EQ(ModelState(&run), before);

      auto next = conn->Execute(sc.insert);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(reference_conn->Execute(sc.insert).ok());
      EXPECT_EQ(ModelState(&run), ModelState(&reference));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllServices, GuardedServiceTest,
                         ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Statement-level guard semantics through Connection::Execute
// ---------------------------------------------------------------------------

class GuardedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WarehouseConfig config;
    config.num_customers = 100;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), config).ok());
    conn_ = provider_.Connect();
  }

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(GuardedStatementTest, OutputRowBudgetTripsSelect) {
  ExecLimits limits;
  limits.max_output_rows = 10;
  conn_->set_limits(limits);
  auto result = conn_->Execute("SELECT [Customer ID] FROM Customers");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
}

TEST_F(GuardedStatementTest, WorkingSetBudgetTripsJoin) {
  ExecLimits limits;
  limits.max_working_set_rows = 20;
  conn_->set_limits(limits);
  // The Sales self-join materializes far more than 20 joined rows.
  auto result = conn_->Execute(
      "SELECT s.[Product Name] FROM Sales s INNER JOIN Sales t "
      "ON s.[Product Name] = t.[Product Name]");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
}

TEST_F(GuardedStatementTest, BudgetsWithHeadroomDoNotTrip) {
  ExecLimits limits;
  limits.max_output_rows = 1000000;
  limits.max_working_set_rows = 10000000;
  limits.deadline_ms = 60000;
  conn_->set_limits(limits);
  auto result = conn_->Execute("SELECT [Customer ID] FROM Customers");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 100u);
}

TEST_F(GuardedStatementTest, CancelledTrainingNamesThePhase) {
  ASSERT_TRUE(conn_->Execute(
                       "CREATE MINING MODEL [P] ([Customer ID] LONG KEY, "
                       "[Gender] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED "
                       "PREDICT) USING Naive_Bayes")
                  .ok());
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  conn_->set_limits(limits);
  auto result = conn_->Execute(
      "INSERT INTO [P] SELECT [Customer ID], [Gender], [Age] FROM Customers");
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  bool names_training = false;
  for (const std::string& frame : result.status().context()) {
    if (frame.find("training model 'P'") != std::string::npos) {
      names_training = true;
    }
  }
  EXPECT_TRUE(names_training) << result.status().ToString();
}

TEST_F(GuardedStatementTest, CancelledPredictionNamesThePhase) {
  ASSERT_TRUE(conn_->Execute(
                       "CREATE MINING MODEL [P] ([Customer ID] LONG KEY, "
                       "[Gender] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED "
                       "PREDICT) USING Naive_Bayes")
                  .ok());
  ASSERT_TRUE(conn_->Execute("INSERT INTO [P] SELECT [Customer ID], "
                             "[Gender], [Age] FROM Customers")
                  .ok());
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  conn_->set_limits(limits);
  auto result = conn_->Execute(
      "SELECT Predict([Age]) FROM [P] NATURAL PREDICTION JOIN "
      "(SELECT [Customer ID], [Gender] FROM Customers) AS t");
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  bool names_prediction = false;
  for (const std::string& frame : result.status().context()) {
    if (frame.find("predicting with model 'P'") != std::string::npos) {
      names_prediction = true;
    }
  }
  EXPECT_TRUE(names_prediction) << result.status().ToString();
}

TEST_F(GuardedStatementTest, DeadlineTripsLongStatement) {
  ExecLimits limits;
  limits.deadline_ms = 30;
  conn_->set_limits(limits);
  // An unindexed self-join on a constant-heavy predicate: quadratic in the
  // Sales table, far beyond 30 ms of work, checkpointed per joined row.
  auto start = std::chrono::steady_clock::now();
  auto result = conn_->Execute(
      "SELECT COUNT(*) AS N FROM Sales s INNER JOIN Sales t "
      "ON s.[CustID] < t.[CustID]");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // Well-placed checkpoints stop the statement near its deadline, not after
  // finishing the whole join. Allow generous slack for loaded CI machines.
  EXPECT_LT(elapsed.count(), 2000) << "statement overran its deadline by "
                                   << (elapsed.count() - 30) << " ms";
}

TEST_F(GuardedStatementTest, CancelledStatementLeavesTablesUnchanged) {
  ASSERT_TRUE(conn_->Execute("CREATE TABLE T (A LONG)").ok());
  ASSERT_TRUE(conn_->Execute("INSERT INTO T VALUES (1)").ok());
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  conn_->set_limits(limits);
  auto result = conn_->Execute("DELETE FROM T");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  conn_->set_limits(ExecLimits{});
  auto rows = conn_->Execute("SELECT * FROM T");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 1u);
}

}  // namespace
}  // namespace dmx
