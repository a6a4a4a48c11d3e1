#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iterator>
#include <set>
#include <utility>

#include "datagen/warehouse.h"
#include "stats.h"

namespace dmxbench {

namespace {

// Statements per second of load. A load executes a fixed count (so
// durable_ingest's table always reaches the same size); these rates make
// that count take roughly the requested time on a 4-vCPU host.
constexpr int64_t kServePointPerSecond = 100'000;
constexpr int64_t kBatchScorePerSecond = 76;
constexpr int64_t kIngestWritesPerSecond = 2'400;  // Both writers together.
constexpr int64_t kIngestReadsPerSecond = 6'000;   // Both readers together.

constexpr int kWRows = 64;
constexpr int kCities = 7;
constexpr int kPredictTags = 50;
constexpr const char* kGenders[] = {"Male", "Female"};
constexpr int64_t kSliceCases = 4;
constexpr int64_t kStagingFirstId = 20'000'000;
/// Slices (and row ids) kept back for the decomposition pass.
constexpr int64_t kSpareSlices = 64;

dmx::Status Exec(dmx::Provider* provider, const std::string& text) {
  return provider->Connect()->Execute(text).status().WithContext(
      "set-up statement: " + text.substr(0, 80));
}

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

/// The paper's [Age Prediction] model shape over `service`.
std::string AgeModel(const std::string& name, const std::string& service) {
  return "CREATE MINING MODEL [" + name +
         "] ([Customer ID] LONG KEY, [Gender] TEXT DISCRETE, "
         "[Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT, "
         "[Product Purchases] TABLE([Product Name] TEXT KEY, "
         "[Product Type] TEXT DISCRETE RELATED TO [Product Name])) USING " +
         service;
}

/// SHAPE caseset over (customers, sales), optionally restricted to the
/// customer ids [lo, hi).
std::string AgeShape(const std::string& customers, const std::string& sales,
                     const std::string& master_columns, int64_t lo = -1,
                     int64_t hi = -1) {
  std::string master_where;
  std::string child_where;
  if (lo >= 0) {
    master_where = " WHERE [Customer ID] >= " + std::to_string(lo) +
                   " AND [Customer ID] < " + std::to_string(hi);
    child_where = " WHERE [CustID] >= " + std::to_string(lo) +
                  " AND [CustID] < " + std::to_string(hi);
  }
  return "SHAPE {SELECT " + master_columns + " FROM " + customers +
         master_where + " ORDER BY [Customer ID]} APPEND ({SELECT [CustID], "
         "[Product Name], [Product Type] FROM " + sales + child_where +
         " ORDER BY [CustID]} RELATE [Customer ID] TO [CustID]) AS "
         "[Product Purchases]";
}

std::string AgeInsert(const std::string& model, const std::string& shape) {
  return "INSERT INTO [" + model +
         "] ([Customer ID], [Gender], [Age], [Product Purchases]([Product "
         "Name], [Product Type])) " + shape;
}

dmx::Status Populate(dmx::Provider* provider, int customers, uint64_t seed,
                     int64_t first_id, const std::string& prefix) {
  dmx::datagen::WarehouseConfig config;
  config.num_customers = customers;
  config.seed = seed;
  config.first_customer_id = first_id;
  config.customers_table = prefix + "Customers";
  config.sales_table = prefix + "Sales";
  config.cars_table = prefix + "Cars";
  return dmx::datagen::PopulateWarehouse(provider->database(), config);
}

/// Table W: 64 rows whose ages come from the seed. Every point and short
/// SELECT over it has an expected rowset computed here, not by the engine.
class WTable {
 public:
  explicit WTable(uint64_t seed) {
    SplitMix rng(seed);
    for (int i = 0; i < kWRows; ++i) {
      ages_.push_back(18 + static_cast<double>(rng.Uniform(60)) +
                      0.5 * static_cast<double>(rng.Uniform(2)));
    }
  }

  dmx::Status Create(dmx::Provider* provider) const {
    DMX_RETURN_IF_ERROR(
        Exec(provider, "CREATE TABLE W (Id LONG, Age DOUBLE, City TEXT)"));
    std::string insert = "INSERT INTO W VALUES ";
    for (int i = 0; i < kWRows; ++i) {
      if (i > 0) insert += ", ";
      insert += '(';
      insert += std::to_string(i);
      insert += ", ";
      insert += Num(ages_[i]);
      insert += ", '";
      insert += City(i);
      insert += "')";
    }
    return Exec(provider, insert);
  }

  /// Appends the point-SELECT pool (one text per row) to `pool`.
  void PointSelects(std::vector<Statement>* pool,
                    std::vector<Expectation>* expect) const {
    for (int i = 0; i < kWRows; ++i) {
      Add("SELECT Id, Age, City FROM W WHERE Id = " + std::to_string(i),
          {FullRow(i)}, pool, expect);
    }
  }

  /// Appends short range and filtered SELECTs.
  void ShortSelects(std::vector<Statement>* pool,
                    std::vector<Expectation>* expect) const {
    for (int a = 0; a < kWRows - 4; ++a) {
      for (int width : {2, 4}) {
        std::vector<dmx::Row> rows;
        for (int i = a; i < a + width; ++i) {
          rows.push_back({dmx::Value::Long(i), dmx::Value::Double(ages_[i])});
        }
        Add("SELECT Id, Age FROM W WHERE Id >= " + std::to_string(a) +
                " AND Id < " + std::to_string(a + width),
            rows, pool, expect);
      }
    }
    for (int c = 0; c < kCities; ++c) {
      for (int bound : {16, 32, 48, 64}) {
        std::vector<dmx::Row> rows;
        for (int i = 0; i < bound; ++i) {
          if (i % kCities == c) rows.push_back({dmx::Value::Long(i)});
        }
        Add("SELECT Id FROM W WHERE City = '" + City(c) + "' AND Id < " +
                std::to_string(bound),
            rows, pool, expect);
      }
    }
  }

 private:
  static std::string City(int i) {
    std::string city = "c";
    city += std::to_string(i % kCities);
    return city;
  }

  dmx::Row FullRow(int i) const {
    return {dmx::Value::Long(i), dmx::Value::Double(ages_[i]),
            dmx::Value::Text(City(i))};
  }

  static void Add(std::string text, const std::vector<dmx::Row>& rows,
                  std::vector<Statement>* pool,
                  std::vector<Expectation>* expect) {
    Statement s;
    s.text = std::move(text);
    s.kind = Kind::kSelectPoint;
    s.expect = static_cast<int32_t>(expect->size());
    expect->push_back({rows.size(), DigestRows(rows)});
    pool->push_back(std::move(s));
  }

  std::vector<double> ages_;
};

/// Fills the expectation of every pool statement whose kind is not a
/// generator-answered SELECT by executing it in-process once.
dmx::Status ReferenceExpectations(dmx::Provider* provider,
                                  const std::vector<Statement>& pool,
                                  std::vector<Expectation>* expect) {
  auto conn = provider->Connect();
  for (const Statement& s : pool) {
    if (s.kind == Kind::kSelectPoint) continue;
    dmx::Result<dmx::Rowset> result = conn->Execute(s.text);
    if (!result.ok()) {
      return result.status().WithContext("reference for: " + s.text);
    }
    (*expect)[static_cast<size_t>(s.expect)] = {result->num_rows(),
                                                DigestRows(result->rows())};
  }
  return dmx::Status::OK();
}

// --- serve_point -----------------------------------------------------------

class ServePoint : public Workload {
 public:
  static constexpr int kSessions = 4;

  ServePoint(uint64_t seed, double seconds) : seed_(seed), w_(seed) {
    w_.PointSelects(&selects_, &expectations);
    w_.ShortSelects(&selects_, &expectations);
    for (const char* gender : kGenders) {
      for (int tag = 0; tag < kPredictTags; ++tag) {
        Statement s;
        s.text = "SELECT t.[Tag] AS Tag, Predict([Age]) AS A, "
                 "PredictProbability([Age]) AS P FROM [Age Prediction] "
                 "NATURAL PREDICTION JOIN (SELECT '" +
                 std::string(gender) + "' AS [Gender], " +
                 std::to_string(tag) + " AS [Tag]) AS t";
        s.kind = Kind::kPredictSingleton;
        s.expect = static_cast<int32_t>(expectations.size());
        expectations.emplace_back();
        predictions_.push_back(std::move(s));
      }
    }
    const auto per_session =
        static_cast<int64_t>(kServePointPerSecond * seconds / kSessions);
    for (int session = 0; session < kSessions; ++session) {
      SplitMix rng(seed * 1000003 + static_cast<uint64_t>(session));
      std::vector<const Statement*> statements;
      statements.reserve(static_cast<size_t>(per_session));
      for (int64_t i = 0; i < per_session; ++i) {
        statements.push_back(Draw(&rng));
      }
      plan_.push_back(std::move(statements));
    }
  }

  const char* name() const override { return "serve_point"; }
  int sessions() const override { return kSessions; }

  dmx::Status Build(dmx::Provider* provider, const BuildEnv&) override {
    DMX_RETURN_IF_ERROR(w_.Create(provider));
    DMX_RETURN_IF_ERROR(Populate(provider, 1000, seed_ + 1, 1, ""));
    DMX_RETURN_IF_ERROR(
        Exec(provider, AgeModel("Age Prediction", "Naive_Bayes")));
    return Exec(provider,
                AgeInsert("Age Prediction",
                          AgeShape("Customers", "Sales",
                                   "[Customer ID], [Gender], [Age]")));
  }

  dmx::Status ComputeExpectations(dmx::Provider* provider) override {
    return ReferenceExpectations(provider, predictions_, &expectations);
  }

  std::vector<Statement> DecompositionSample() const override {
    std::vector<Statement> sample;
    for (size_t i = 0; i < 200; ++i) sample.push_back(*plan_[0][i]);
    return sample;
  }

 private:
  /// ~80% SELECTs, ~20% singleton predictions, uniform over each pool.
  const Statement* Draw(SplitMix* rng) const {
    if (rng->Uniform(5) == 0) {
      return &predictions_[rng->Uniform(predictions_.size())];
    }
    return &selects_[rng->Uniform(selects_.size())];
  }

  uint64_t seed_;
  WTable w_;
  std::vector<Statement> selects_;
  std::vector<Statement> predictions_;
};

// --- batch_score -----------------------------------------------------------

class BatchScore : public Workload {
 public:
  static constexpr int kSessions = 2;
  static constexpr int kTestCustomers = 2000;

  BatchScore(uint64_t seed, double seconds) : seed_(seed) {
    for (const auto& [model, service] : Models()) {
      Statement s;
      s.text = "SELECT t.[Customer ID], Predict([Age]) AS A, "
               "PredictProbability([Age]) AS P FROM [" + model +
               "] NATURAL PREDICTION JOIN (" +
               AgeShape("TestCustomers", "TestSales",
                        "[Customer ID], [Gender]") + ") AS t";
      s.kind = Kind::kPredictBatch;
      s.expect = static_cast<int32_t>(expectations.size());
      expectations.emplace_back();
      pool_.push_back(std::move(s));
    }
    const auto per_session =
        static_cast<int64_t>(kBatchScorePerSecond * seconds / kSessions);
    for (int session = 0; session < kSessions; ++session) {
      std::vector<const Statement*> statements;
      // Sessions rotate over the models out of phase with each other; the
      // seed picks where each session's rotation starts.
      size_t start = (seed + static_cast<uint64_t>(session)) % pool_.size();
      for (int64_t i = 0; i < per_session; ++i) {
        statements.push_back(
            &pool_[(start + static_cast<size_t>(i)) % pool_.size()]);
      }
      plan_.push_back(std::move(statements));
    }
  }

  const char* name() const override { return "batch_score"; }
  int sessions() const override { return kSessions; }

  dmx::Status Build(dmx::Provider* provider, const BuildEnv&) override {
    DMX_RETURN_IF_ERROR(Populate(provider, 2000, seed_ + 1, 1, ""));
    DMX_RETURN_IF_ERROR(
        Populate(provider, kTestCustomers, seed_ + 2, 10'000'000, "Test"));
    const std::string train = AgeShape("Customers", "Sales",
                                       "[Customer ID], [Gender], [Age]");
    for (const auto& [model, service] : Models()) {
      DMX_RETURN_IF_ERROR(Exec(provider, AgeModel(model, service)));
      DMX_RETURN_IF_ERROR(Exec(provider, AgeInsert(model, train)));
    }
    return dmx::Status::OK();
  }

  dmx::Status ComputeExpectations(dmx::Provider* provider) override {
    return ReferenceExpectations(provider, pool_, &expectations);
  }

  std::vector<Statement> DecompositionSample() const override {
    return pool_;
  }

 private:
  static std::vector<std::pair<std::string, std::string>> Models() {
    return {{"Age NB", "Naive_Bayes"},
            {"Age DT", "Decision_Trees"},
            {"Age CL", "Clustering(CLUSTER_COUNT = 4, SEED = 3)"}};
  }

  uint64_t seed_;
  std::vector<Statement> pool_;
};

// --- durable_ingest --------------------------------------------------------

class DurableIngest : public Workload {
 public:
  static constexpr int kWriters = 2;
  static constexpr int kReaders = 2;
  static constexpr int kTrainCustomers = 1100;

  DurableIngest(uint64_t seed, double seconds) : seed_(seed), w_(seed) {
    w_.PointSelects(&reads_, &expectations);
    const auto writes =
        static_cast<int64_t>(kIngestWritesPerSecond * seconds / kWriters);
    const auto reads =
        static_cast<int64_t>(kIngestReadsPerSecond * seconds / kReaders);
    for (int session = 0; session < kWriters; ++session) {
      SplitMix rng(seed * 7919 + static_cast<uint64_t>(session));
      std::vector<const Statement*> statements;
      for (int64_t i = 0; i < writes; ++i) {
        // About one write in ten trains the model on a fresh slice.
        writes_.push_back(rng.Uniform(10) == 0 ? InsertCases(next_slice_++)
                                               : InsertRow(session, i));
        statements.push_back(&writes_.back());
      }
      plan_.push_back(std::move(statements));
    }
    for (int session = 0; session < kReaders; ++session) {
      SplitMix rng(seed * 104729 + static_cast<uint64_t>(session));
      std::vector<const Statement*> statements;
      for (int64_t i = 0; i < reads; ++i) {
        statements.push_back(&reads_[rng.Uniform(reads_.size())]);
      }
      plan_.push_back(std::move(statements));
    }
  }

  const char* name() const override { return "durable_ingest"; }
  int sessions() const override { return kWriters + kReaders; }
  bool durable() const override { return true; }

  dmx::Status Build(dmx::Provider* provider, const BuildEnv& env) override {
    dmx::store::StoreOptions options;
    options.env = env.env;
    options.auto_checkpoint_interval = 0;
    DMX_RETURN_IF_ERROR(provider->OpenStore(env.store_dir, options));
    // Warehouses go in through the configuration-time accessor and become
    // durable with one checkpoint; everything after that is journaled.
    DMX_RETURN_IF_ERROR(Populate(provider, kTrainCustomers, seed_ + 1, 1, ""));
    DMX_RETURN_IF_ERROR(Populate(
        provider, static_cast<int>((next_slice_ + kSpareSlices) * kSliceCases),
        seed_ + 3, kStagingFirstId, "Staging"));
    DMX_RETURN_IF_ERROR(provider->Checkpoint());
    DMX_RETURN_IF_ERROR(w_.Create(provider));
    DMX_RETURN_IF_ERROR(Exec(provider, RowTableDdl()));
    DMX_RETURN_IF_ERROR(Exec(provider, AgeModel("Ingest NB", "Naive_Bayes")));
    return Exec(provider,
                AgeInsert("Ingest NB",
                          AgeShape("Customers", "Sales",
                                   "[Customer ID], [Gender], [Age]")));
  }

  dmx::Status ComputeExpectations(dmx::Provider*) override {
    return dmx::Status::OK();  // Reads are all generator-answered.
  }

  dmx::Result<uint64_t> VerifyRecovery(
      const BuildEnv& env, const std::vector<const Statement*>& acked,
      std::unique_ptr<dmx::Provider>* reopened) override {
    auto provider = std::make_unique<dmx::Provider>();
    dmx::store::StoreOptions options;
    options.env = env.env;
    DMX_RETURN_IF_ERROR(provider->OpenStore(env.store_dir, options));
    uint64_t bad = 0;
    for (const dmx::store::ShardStatus& shard :
         provider->store()->recovery_report()) {
      if (shard.quarantined) {
        std::fprintf(stderr, "recovery: shard %s quarantined: %s\n",
                     shard.id.c_str(), shard.reason.c_str());
        ++bad;
      }
    }
    bad += provider->DegradedModels().size();

    std::multiset<int64_t> want_rows;
    double want_cases = kTrainCustomers;
    for (const Statement* s : acked) {
      if (s->kind == Kind::kInsertRow) want_rows.insert(s->key);
      if (s->kind == Kind::kInsertCases) want_cases += s->cases;
    }
    DMX_ASSIGN_OR_RETURN(const dmx::rel::Table* table,
                         provider->database()->GetTable("Ingest"));
    std::multiset<int64_t> got_rows;
    for (const dmx::Row& row : table->rows()) {
      got_rows.insert(row[0].long_value());
    }
    if (got_rows != want_rows) {
      std::vector<int64_t> diff;
      std::set_symmetric_difference(want_rows.begin(), want_rows.end(),
                                    got_rows.begin(), got_rows.end(),
                                    std::back_inserter(diff));
      std::fprintf(stderr,
                   "recovery: %zu rows recovered, %zu acknowledged, %zu "
                   "differ\n",
                   got_rows.size(), want_rows.size(), diff.size());
      bad += diff.size();
    }
    DMX_ASSIGN_OR_RETURN(const dmx::MiningModel* model,
                         provider->models()->GetModel("Ingest NB"));
    if (model->case_count() != want_cases) {
      std::fprintf(stderr, "recovery: model holds %.1f cases, expected %.1f\n",
                   model->case_count(), want_cases);
      ++bad;
    }
    *reopened = std::move(provider);
    return bad;
  }

  std::vector<Statement> DecompositionSample() const override {
    // Session 0's writes interleaved with the first reader's point SELECTs.
    std::vector<Statement> sample;
    for (size_t i = 0; i < 100; ++i) {
      sample.push_back(*plan_[0][i]);
      sample.push_back(*plan_[kWriters][i]);
    }
    return sample;
  }

  dmx::Result<Statement> FreshWrite(Kind kind, int64_t n) const override {
    if (kind == Kind::kInsertRow) return InsertRow(kWriters, n);
    if (n >= kSpareSlices) {
      return dmx::ResourceExhausted() << "spare staging slices used up";
    }
    return InsertCases(next_slice_ + n);
  }

  int writers() const override { return kWriters; }
  std::string RowTableDdl() const override {
    return "CREATE TABLE Ingest (Id LONG, Writer LONG, Amount DOUBLE, "
           "Note TEXT)";
  }

 private:
  static Statement InsertRow(int writer, int64_t i) {
    Statement s;
    s.kind = Kind::kInsertRow;
    s.key = static_cast<int64_t>(writer) * 10'000'000 + i;
    s.text = "INSERT INTO Ingest VALUES (" + std::to_string(s.key) + ", " +
             std::to_string(writer) + ", " + Num(static_cast<double>(i % 997)) +
             ", 'n" + std::to_string(s.key) + "')";
    return s;
  }

  static Statement InsertCases(int64_t slice) {
    Statement s;
    s.kind = Kind::kInsertCases;
    s.key = kStagingFirstId + slice * kSliceCases;
    s.cases = kSliceCases;
    s.text = AgeInsert("Ingest NB",
                       AgeShape("StagingCustomers", "StagingSales",
                                "[Customer ID], [Gender], [Age]", s.key,
                                s.key + kSliceCases));
    return s;
  }

  uint64_t seed_;
  WTable w_;
  std::vector<Statement> reads_;
  std::deque<Statement> writes_;  // Every write text is unique.
  int64_t next_slice_ = 0;
};

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSelectPoint:
      return "select_point";
    case Kind::kPredictSingleton:
      return "predict_singleton";
    case Kind::kPredictBatch:
      return "predict_batch";
    case Kind::kInsertRow:
      return "insert_row";
    case Kind::kInsertCases:
      return "insert_cases";
  }
  return "?";
}

uint64_t DigestRows(const std::vector<dmx::Row>& rows) {
  uint64_t hash = kFnvOffset;
  for (const dmx::Row& row : rows) {
    for (const dmx::Value& cell : row) {
      hash = Fnv1a(hash, cell.ToString());
      hash = Fnv1a(hash, "\t");  // Cell boundary: "ab","c" != "a","bc".
    }
    hash = Fnv1a(hash, "\n");
  }
  return hash;
}

bool Workload::Check(const Statement& statement,
                     const dmx::Rowset& result) const {
  if (IsWrite(statement.kind)) return result.num_rows() == 0;
  const Expectation& want = expectations[static_cast<size_t>(statement.expect)];
  return result.num_rows() == want.rows &&
         DigestRows(result.rows()) == want.digest;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double seconds) {
  if (name == "serve_point") return std::make_unique<ServePoint>(seed, seconds);
  if (name == "batch_score") return std::make_unique<BatchScore>(seed, seconds);
  if (name == "durable_ingest") {
    return std::make_unique<DurableIngest>(seed, seconds);
  }
  return nullptr;
}

}  // namespace dmxbench
