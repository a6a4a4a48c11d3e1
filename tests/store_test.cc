// Durable store: statements journaled through a provider survive process
// death. Covers the sharded WAL/snapshot round trip, checkpoint rotation,
// torn-tail vs mid-log corruption handling, IMPORT blob journaling, shard
// quarantine + per-model degraded mode + Repair, the namespace-aware stale
// sweep, parallel recovery, and the crash-point sweep — a fault injected at
// EVERY mutating I/O op must leave a state that recovers to exactly the
// successfully-executed statement prefix.

#include "store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/provider.h"
#include "relational/database.h"
#include "store/log_format.h"

namespace dmx {
namespace {

// A fixed script exercising every journaled path: SQL DDL/DML, model DDL,
// training, retraining after DELETE FROM, and incremental data arrival.
const std::vector<std::string>& Script() {
  static const std::vector<std::string> kScript = {
      "CREATE TABLE People (Id LONG, Age DOUBLE, Income DOUBLE, "
      "Loyalty LONG)",
      "INSERT INTO People VALUES (1, 25, 100, 0), (2, 30, 210, 1), "
      "(3, 45, 300, 1), (4, 22, 90, 0), (5, 60, 400, 1), (6, 35, 150, 0)",
      "CREATE MINING MODEL [M] ([Id] LONG KEY, [Age] DOUBLE CONTINUOUS, "
      "[Income] DOUBLE CONTINUOUS, [Loyalty] LONG DISCRETE PREDICT) "
      "USING Clustering(CLUSTER_COUNT = 2, SEED = 7)",
      "INSERT INTO [M] SELECT [Id], [Age], [Income], [Loyalty] FROM People",
      "INSERT INTO People VALUES (7, 28, 120, 0), (8, 52, 380, 1)",
      "DELETE FROM [M]",
      "INSERT INTO [M] SELECT [Id], [Age], [Income], [Loyalty] FROM People",
  };
  return kScript;
}

// A script whose model trains *incrementally* (Naive_Bayes): its INSERT INTO
// statements journal as statements into the model's own shard, giving that
// shard a multi-record log to damage, quarantine and repair.
const std::vector<std::string>& NbScript() {
  static const std::vector<std::string> kScript = {
      Script()[0],
      Script()[1],
      "CREATE MINING MODEL [NB] ([Id] LONG KEY, [Age] DOUBLE DISCRETIZED, "
      "[Loyalty] LONG DISCRETE PREDICT) USING Naive_Bayes",
      "INSERT INTO [NB] SELECT [Id], [Age], [Loyalty] FROM People",
      "INSERT INTO People VALUES (7, 28, 120, 0), (8, 52, 380, 1)",
      "INSERT INTO [NB] SELECT [Id], [Age], [Loyalty] FROM People",
      "INSERT INTO People VALUES (9, 41, 260, 1)",
      "INSERT INTO [NB] SELECT [Id], [Age], [Loyalty] FROM People",
  };
  return kScript;
}

constexpr const char* kPredictQuery =
    "SELECT t.[Id], Predict([Loyalty]) AS P, PredictProbability([Loyalty]) "
    "AS Q FROM [M] NATURAL PREDICTION JOIN "
    "(SELECT [Id], [Age], [Income] FROM People) AS t";

constexpr const char* kNbPredictQuery =
    "SELECT Predict([Loyalty]) AS P FROM [NB] NATURAL PREDICTION JOIN "
    "(SELECT [Id], [Age] FROM People) AS t";

// Serializes everything observable about a provider: table contents, model
// inventory (with case counts), and — when [M] is trained — its predictions.
// Two providers with equal StateStrings are behaviourally identical.
std::string StateString(Provider* provider) {
  std::string out;
  std::vector<std::string> tables = provider->database()->ListTables();
  std::sort(tables.begin(), tables.end());
  for (const std::string& name : tables) {
    auto table = provider->database()->GetTable(name);
    if (!table.ok()) return "table error: " + table.status().ToString();
    out += "table " + name + "\n" +
           rel::ToCsvString(*(*table)->schema(), (*table)->rows());
  }
  std::vector<std::string> models = provider->models()->ListModels();
  std::sort(models.begin(), models.end());
  auto conn = provider->Connect();
  for (const std::string& name : models) {
    auto model = provider->models()->GetModel(name);
    if (!model.ok()) return "model error: " + model.status().ToString();
    out += "model " + name + " cases=" +
           std::to_string((*model)->case_count()) + "\n";
    if ((*model)->is_trained() && name == "M") {
      auto rowset = conn->Execute(kPredictQuery);
      if (!rowset.ok()) {
        return "predict error: " + rowset.status().ToString();
      }
      out += rowset->ToString();
    }
  }
  return out;
}

// Executes the first `count` statements of `script` on a fresh in-memory
// provider — the oracle a recovered store is compared against.
std::string OracleState(const std::vector<std::string>& script, size_t count) {
  Provider provider;
  auto conn = provider.Connect();
  for (size_t i = 0; i < count; ++i) {
    auto result = conn->Execute(script[i]);
    EXPECT_TRUE(result.ok())
        << "oracle statement " << i << ": " << result.status().ToString();
  }
  return StateString(&provider);
}

std::string OracleState(size_t count) { return OracleState(Script(), count); }

std::string StoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/store_test_" + name;
  // Tests reuse names across runs; start from an empty directory
  // (including any quarantined shards from a previous run).
  Env* env = Env::Default();
  for (const std::string& sub : {dir + "/quarantine", dir}) {
    auto names = env->ListDir(sub);
    if (!names.ok()) continue;
    for (const std::string& f : *names) (void)env->DeleteFile(sub + "/" + f);
  }
  return dir;
}

// Returns the path of the first file in `dir` whose name starts with
// `prefix` — e.g. "shard-catalog-" or "shard-m" for model shards.
std::string FindShard(const std::string& dir, const std::string& prefix) {
  auto names = Env::Default()->ListDir(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (name.rfind(prefix, 0) == 0) return dir + "/" + name;
  }
  ADD_FAILURE() << "no " << prefix << "* file in " << dir;
  return "";
}

std::string FindSnapshot(const std::string& dir) {
  return FindShard(dir, "snapshot-");
}

// Rewrites the log at `path` flipping one payload byte of record `target`
// (0-based): that record's CRC fails while every record after it stays
// healthy — mid-log damage, not a torn tail.
void CorruptRecord(const std::string& path, size_t target) {
  auto data = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  auto parsed = store::ParseLog(*data);
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed->torn_tail);
  ASSERT_GT(parsed->records.size(), target + 1)
      << "need a record after the damaged one";
  std::string out;
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    std::string frame;
    store::AppendRecordTo(&frame, parsed->records[i]);
    if (i == target) frame[8] ^= 0x01;  // first payload byte
    out += frame;
  }
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, out, true).ok());
}

TEST(StoreTest, StatePersistsAcrossReopen) {
  std::string dir = StoreDir("reopen");
  std::string before;
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : Script()) {
      auto result = conn->Execute(statement);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    before = StateString(&provider);
  }  // Dies without a checkpoint: recovery must come purely from the WAL.

  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  const store::RecoveryStats& stats = reopened.store()->recovery_stats();
  // Training INSERTs into non-incremental models journal the trained model
  // blob, not the statement — and journaling a blob *rotates* the model's
  // shard, superseding the earlier blob and the DELETE FROM that preceded
  // it. What survives: 4 catalog statements + the final trained blob.
  EXPECT_EQ(stats.replayed_statements, Script().size() - 3);
  EXPECT_EQ(stats.replayed_blobs, 1u);
  EXPECT_FALSE(stats.torn_tail_truncated);
  EXPECT_EQ(stats.shards_quarantined, 0u);
  EXPECT_GE(stats.shards_recovered, 2u);  // catalog + [M]'s shard
  EXPECT_EQ(StateString(&reopened), before);
  EXPECT_EQ(before, OracleState(Script().size()));
}

TEST(StoreTest, CheckpointRotatesWalAndSpeedsRecovery) {
  std::string dir = StoreDir("checkpoint");
  std::string before;
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : Script()) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
    ASSERT_TRUE(provider.Checkpoint().ok());
    EXPECT_EQ(provider.store()->wal_records(), 0u);
    // Post-checkpoint statements land in the rotated WAL.
    ASSERT_TRUE(
        conn->Execute("INSERT INTO People VALUES (9, 41, 260, 1)").ok());
    before = StateString(&provider);
  }

  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  const store::RecoveryStats& stats = reopened.store()->recovery_stats();
  EXPECT_GT(stats.snapshot_seq, 0u);
  EXPECT_GT(stats.snapshot_entries, 0u);
  EXPECT_EQ(stats.replayed_statements, 1u);  // only the post-checkpoint row
  EXPECT_EQ(StateString(&reopened), before);

  // A second checkpoint bumps the sequence and still round-trips.
  ASSERT_TRUE(reopened.Checkpoint().ok());
  Provider again;
  ASSERT_TRUE(again.OpenStore(dir).ok());
  EXPECT_GT(again.store()->recovery_stats().snapshot_seq, stats.snapshot_seq);
  EXPECT_EQ(StateString(&again), before);
}

TEST(StoreTest, TornWalTailIsTruncatedSilently) {
  std::string dir = StoreDir("torn");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
  }
  // Simulate a crash mid-append on the catalog shard: a record header with
  // no payload behind it.
  std::string wal = FindShard(dir, "shard-catalog-");
  std::string tail;
  store::PutFixed32(&tail, 1000);  // claims 1000 payload bytes
  store::PutFixed32(&tail, 0xdeadbeef);
  tail += "only a few";
  {
    auto file = Env::Default()->NewWritableFile(wal, /*append=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(tail).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  EXPECT_TRUE(reopened.store()->recovery_stats().torn_tail_truncated);
  // 3 statements + 1 model blob: the [M] training insert journals a blob.
  EXPECT_EQ(reopened.store()->recovery_stats().replayed_statements, 3u);
  EXPECT_EQ(reopened.store()->recovery_stats().replayed_blobs, 1u);
  EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 0u);
  EXPECT_EQ(StateString(&reopened), OracleState(4));

  // The truncation repaired the file: a third open sees a clean log.
  Provider third;
  ASSERT_TRUE(third.OpenStore(dir).ok());
  EXPECT_FALSE(third.store()->recovery_stats().torn_tail_truncated);
  EXPECT_EQ(StateString(&third), OracleState(4));
}

TEST(StoreTest, ZeroFilledWalTailIsTornTail) {
  std::string dir = StoreDir("zerotail");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
  }
  // Block preallocation after power loss: the WAL gains a run of zero bytes
  // past the last fsynced record. Must recover silently, not quarantine.
  std::string wal = FindShard(dir, "shard-catalog-");
  {
    auto file = Env::Default()->NewWritableFile(wal, /*append=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(64, '\0')).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  EXPECT_TRUE(reopened.store()->recovery_stats().torn_tail_truncated);
  // 3 statements + 1 model blob (see TornWalTailIsTruncatedSilently).
  EXPECT_EQ(reopened.store()->recovery_stats().replayed_statements, 3u);
  EXPECT_EQ(reopened.store()->recovery_stats().replayed_blobs, 1u);
  EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 0u);
  EXPECT_EQ(StateString(&reopened), OracleState(4));
}

TEST(StoreTest, SnapshotRoundTripsNewlineAndEmptyCells) {
  std::string dir = StoreDir("newline_cells");
  std::string before;
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto schema = Schema::Make({ColumnDef("Id", DataType::kLong),
                                ColumnDef("Body", DataType::kText)});
    auto table = provider.database()->CreateTable("Notes", schema);
    ASSERT_TRUE(table.ok());
    std::vector<Row> rows;
    rows.push_back({Value::Long(1),
                    Value::Text("line one\nline \"two\", with comma")});
    rows.push_back({Value::Long(2), Value::Text("")});
    rows.push_back({Value::Long(3), Value::Null()});
    ASSERT_TRUE((*table)->InsertAll(std::move(rows)).ok());
    ASSERT_TRUE(provider.Checkpoint().ok());
    before = StateString(&provider);
  }

  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(StateString(&reopened), before);
  auto table = reopened.database()->GetTable("Notes");
  ASSERT_TRUE(table.ok());
  const std::vector<Row>& rows = (*table)->rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(
      rows[0][1].Equals(Value::Text("line one\nline \"two\", with comma")));
  // Empty string and NULL stay distinct across checkpoint + recovery.
  EXPECT_TRUE(rows[1][1].Equals(Value::Text("")));
  EXPECT_TRUE(rows[2][1].is_null());
}

// ---------------------------------------------------------------------------
// Quarantine + degraded mode — the acceptance criterion. Mid-log damage in
// ONE model's shard must not fail the open: the shard moves to quarantine/,
// the model serves kUnavailable, everything else keeps working, and Repair
// re-adopts the valid prefix.
// ---------------------------------------------------------------------------

TEST(StoreTest, ModelShardDamageQuarantinesAndDegrades) {
  std::string dir = StoreDir("quarantine");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : NbScript()) {
      auto result = conn->Execute(statement);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  // [NB]'s shard holds {header, insert#1, insert#2, insert#3}. Damage
  // insert#2: a healthy record follows, so this is mid-log damage — the
  // valid prefix is insert#1.
  CorruptRecord(FindShard(dir, "shard-m"), 2);

  {
    Provider reopened;
    Status status = reopened.OpenStore(dir);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 1u);

    // The damaged shard is in quarantine/ with a reason sidecar.
    std::string qfile = FindShard(dir + "/quarantine", "shard-m");
    ASSERT_FALSE(qfile.empty());
    auto reason = Env::Default()->ReadFileToString(qfile + ".reason");
    ASSERT_TRUE(reason.ok());
    EXPECT_NE(reason->find("\"model\":\"NB\""), std::string::npos) << *reason;

    // [NB] is degraded: reads and writes against it say kUnavailable and
    // name the quarantined shard; they do NOT say kNotFound or kCorruption.
    auto conn = reopened.Connect();
    auto predict = conn->Execute(kNbPredictQuery);
    ASSERT_FALSE(predict.ok());
    EXPECT_TRUE(predict.status().IsUnavailable()) << predict.status().ToString();
    EXPECT_NE(predict.status().ToString().find("quarantined"),
              std::string::npos)
        << predict.status().ToString();
    auto retrain =
        conn->Execute("INSERT INTO [NB] SELECT [Id], [Age], [Loyalty] "
                      "FROM People");
    ASSERT_FALSE(retrain.ok());
    EXPECT_TRUE(retrain.status().IsUnavailable());
    auto drop = conn->Execute("DROP MINING MODEL [NB]");
    ASSERT_FALSE(drop.ok());
    EXPECT_TRUE(drop.status().IsUnavailable());
    // Its content, a table of the relational engine, says so too, naming
    // the quarantined shard.
    std::string shard_id;
    const store::StoreStatus shards = reopened.store()->GetStatus();
    for (const store::ShardStatus& shard : shards.shards) {
      if (shard.model == "NB") shard_id = shard.id;
    }
    ASSERT_FALSE(shard_id.empty());
    auto content = conn->Execute("SELECT NODE_TYPE FROM [NB].CONTENT");
    ASSERT_FALSE(content.ok());
    EXPECT_TRUE(content.status().IsUnavailable()) << content.status().ToString();
    EXPECT_NE(content.status().ToString().find("'" + shard_id + "'"),
              std::string::npos)
        << content.status().ToString();
    // Re-creating a model whose name a quarantined shard still owns is also
    // refused — repairing later must not find the name taken.
    auto recreate = conn->Execute(NbScript()[2]);
    ASSERT_FALSE(recreate.ok());
    EXPECT_TRUE(recreate.status().IsUnavailable());

    // Everything else serves: reads and writes on other objects succeed.
    EXPECT_FALSE(reopened.StoreReadOnly());
    ASSERT_TRUE(
        conn->Execute("SELECT COUNT(*) AS N FROM People").ok());
    ASSERT_TRUE(
        conn->Execute("INSERT INTO People VALUES (10, 33, 140, 0)").ok());

    auto degraded = reopened.DegradedModels();
    ASSERT_EQ(degraded.size(), 1u);
    EXPECT_EQ(degraded[0].first, "NB");

    // The status report carries the quarantined row.
    store::StoreStatus report = reopened.store()->GetStatus();
    size_t quarantined_rows = 0;
    for (const store::ShardStatus& row : report.shards) {
      if (!row.quarantined) continue;
      ++quarantined_rows;
      EXPECT_EQ(row.model, "NB");
      EXPECT_FALSE(row.reason.empty());
    }
    EXPECT_EQ(quarantined_rows, 1u);
  }

  // The quarantine survives a reopen (reloaded from the reason sidecar).
  {
    Provider again;
    ASSERT_TRUE(again.OpenStore(dir).ok());
    ASSERT_EQ(again.DegradedModels().size(), 1u);
    auto conn = again.Connect();
    auto predict = conn->Execute(kNbPredictQuery);
    ASSERT_FALSE(predict.ok());
    EXPECT_TRUE(predict.status().IsUnavailable());

    // Repair re-adopts the valid prefix — by model name — and lifts the
    // degradation in place, no reopen needed.
    store::RepairStats stats;
    Status repaired = again.Repair("NB", &stats);
    ASSERT_TRUE(repaired.ok()) << repaired.ToString();
    EXPECT_EQ(stats.records_reapplied, 1u);  // insert#1 survives
    EXPECT_GT(stats.bytes_dropped, 0u);      // insert#2 + insert#3 dropped
    EXPECT_TRUE(again.DegradedModels().empty());
    ASSERT_TRUE(conn->Execute(kNbPredictQuery).ok());
    // The quarantine entry is gone from disk too.
    auto leftovers = Env::Default()->ListDir(dir + "/quarantine");
    if (leftovers.ok()) {
      EXPECT_TRUE(leftovers->empty());
    }
  }

  // After Repair the store reopens clean and [NB] serves.
  Provider final_check;
  ASSERT_TRUE(final_check.OpenStore(dir).ok());
  EXPECT_EQ(final_check.store()->recovery_stats().shards_quarantined, 0u);
  EXPECT_TRUE(final_check.DegradedModels().empty());
  auto conn = final_check.Connect();
  ASSERT_TRUE(conn->Execute(kNbPredictQuery).ok());
}

TEST(StoreTest, CatalogShardDamageMakesStoreReadOnly) {
  std::string dir = StoreDir("catquarantine");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
  }
  // Catalog shard: {header, CREATE TABLE, INSERT, CREATE MODEL}. Damage the
  // INSERT — the CREATE MODEL after it makes this mid-log damage.
  CorruptRecord(FindShard(dir, "shard-catalog-"), 2);

  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reopened.StoreReadOnly());
  EXPECT_TRUE(reopened.store()->catalog_quarantined());

  // Every mutating statement is refused with kUnavailable...
  auto conn = reopened.Connect();
  auto insert =
      conn->Execute("INSERT INTO People VALUES (10, 33, 140, 0)");
  ASSERT_FALSE(insert.ok());
  EXPECT_TRUE(insert.status().IsUnavailable()) << insert.status().ToString();
  auto create = conn->Execute("CREATE TABLE Other (Id LONG)");
  ASSERT_FALSE(create.ok());
  EXPECT_TRUE(create.status().IsUnavailable());
  // ...as is checkpointing (it would discard the quarantined records).
  EXPECT_FALSE(reopened.Checkpoint().ok());

  // Reads still serve: [M]'s shard replayed its blob independently.
  auto model = reopened.models()->GetModel("M");
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE((*model)->is_trained());
  ASSERT_TRUE(
      conn->Execute("SELECT * FROM $system.DMSCHEMA_MINING_MODELS").ok());

  // Repair re-adopts the valid prefix (the CREATE TABLE) and lifts the
  // read-only mode.
  store::RepairStats stats;
  Status repaired = reopened.Repair(store::kCatalogShardId, &stats);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_EQ(stats.records_reapplied, 1u);
  EXPECT_FALSE(reopened.StoreReadOnly());
  ASSERT_TRUE(
      conn->Execute("INSERT INTO People VALUES (1, 25, 100, 0)").ok());

  // And the repaired store round-trips.
  Provider again;
  ASSERT_TRUE(again.OpenStore(dir).ok());
  EXPECT_EQ(again.store()->recovery_stats().shards_quarantined, 0u);
  EXPECT_EQ(StateString(&again), StateString(&reopened));
}

TEST(StoreTest, MissingShardFileIsQuarantined) {
  std::string dir = StoreDir("missing");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : Script()) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
  }
  // The retrain rotated [M]'s shard, committing it to the MANIFEST with a
  // record floor — deleting the file is detectable data loss, not a
  // legitimately empty shard.
  ASSERT_TRUE(Env::Default()->DeleteFile(FindShard(dir, "shard-m")).ok());

  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 1u);
  auto degraded = reopened.DegradedModels();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].first, "M");
  EXPECT_NE(degraded[0].second.find("missing"), std::string::npos)
      << degraded[0].second;

  // The catalog replayed normally around the hole.
  auto conn = reopened.Connect();
  auto predict = conn->Execute(kPredictQuery);
  ASSERT_FALSE(predict.ok());
  EXPECT_TRUE(predict.status().IsUnavailable());
  ASSERT_TRUE(conn->Execute("SELECT COUNT(*) AS N FROM People").ok());

  // Repair of a missing file re-adopts empty: [M] is back to its recovered
  // base (created, untrained) and writable — a retrain restores it fully.
  store::RepairStats stats;
  ASSERT_TRUE(reopened.Repair("M", &stats).ok());
  EXPECT_EQ(stats.records_reapplied, 0u);
  EXPECT_TRUE(reopened.DegradedModels().empty());
  ASSERT_TRUE(conn->Execute(Script()[6]).ok());  // retrain [M]
  ASSERT_TRUE(conn->Execute(kPredictQuery).ok());

  Provider again;
  ASSERT_TRUE(again.OpenStore(dir).ok());
  EXPECT_EQ(again.store()->recovery_stats().shards_quarantined, 0u);
  EXPECT_EQ(StateString(&again), StateString(&reopened));
}

// A MANIFEST that exists but does not decode must fail the open, never fall
// back to the directory scan: the fallback has no shard table, so a
// committed rotated shard (epoch >= 2, hence no epoch-1 file) would classify
// as stale and be swept — silent loss of acknowledged data.
TEST(StoreTest, UndecodableManifestFailsOpenWithoutSweepingShards) {
  std::string dir = StoreDir("badmanifest");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : Script()) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
  }  // The retrain rotated [M]'s shard to epoch 2, committed in MANIFEST.
  std::string shard = FindShard(dir, "shard-m");
  ASSERT_NE(shard.find("-000002.log"), std::string::npos) << shard;

  // A well-framed single record whose payload is a foreign/old format.
  std::string bogus;
  store::AppendRecordTo(&bogus, "DMXMANIFEST1 not the v2 shard table");
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(dir + "/MANIFEST", bogus, true).ok());

  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  // The committed shard was NOT swept by a blind fallback recovery.
  EXPECT_TRUE(Env::Default()->FileExists(shard));
}

// A shard file that parses as a clean prefix but replays fewer records than
// the MANIFEST committed (fs rollback, lost writes) lost acknowledged
// records: recovery must quarantine it, not silently accept the short log.
TEST(StoreTest, ShardShorterThanManifestFloorQuarantines) {
  std::string dir = StoreDir("shortshard");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : Script()) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
  }  // [M]'s rotated shard is committed with min_records = 1 (its blob).
  // Rewrite the shard to header-only: a clean, complete-looking log.
  std::string shard = FindShard(dir, "shard-m");
  auto data = Env::Default()->ReadFileToString(shard);
  ASSERT_TRUE(data.ok());
  auto parsed = store::ParseLog(*data);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->records.size(), 2u);
  std::string out;
  store::AppendRecordTo(&out, parsed->records[0]);
  ASSERT_TRUE(Env::Default()->WriteStringToFile(shard, out, true).ok());

  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 1u);
  auto degraded = reopened.DegradedModels();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].first, "M");
  EXPECT_NE(degraded[0].second.find("manifest promises"), std::string::npos)
      << degraded[0].second;
  auto conn = reopened.Connect();
  auto predict = conn->Execute(kPredictQuery);
  ASSERT_FALSE(predict.ok());
  EXPECT_TRUE(predict.status().IsUnavailable()) << predict.status().ToString();
}

// A Repair that fails AFTER re-applying records (here: at the MANIFEST
// commit) has already mutated the live catalog; a same-session retry would
// re-execute that prefix on top of itself. The retry must be refused until
// a reopen replays from a consistent base.
TEST(StoreTest, RepairRetryAfterCommitFailureIsRefused) {
  std::string dir = StoreDir("repairretry");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : NbScript()) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
  }
  CorruptRecord(FindShard(dir, "shard-m"), 2);  // valid prefix: insert#1

  FaultInjectionEnv env(Env::Default());
  store::StoreOptions options;
  options.env = &env;
  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir, options).ok());
  ASSERT_EQ(reopened.DegradedModels().size(), 1u);

  // Fail the MANIFEST commit of the repair; everything before it (the
  // catalog re-apply and the new epoch file) succeeds.
  env.SetPathFilter("MANIFEST");
  env.ArmFault(0, FaultInjectionEnv::FaultKind::kIOError);
  store::RepairStats stats;
  Status failed = reopened.Repair("NB", &stats);
  ASSERT_FALSE(failed.ok());
  env.Disarm();
  env.ClearPathFilter();
  ASSERT_EQ(reopened.DegradedModels().size(), 1u);  // still quarantined

  // insert#1 was re-applied before the commit failed: a same-session retry
  // must be refused, not double-applied.
  Status retry = reopened.Repair("NB");
  ASSERT_FALSE(retry.ok());
  EXPECT_TRUE(retry.IsInvalidState()) << retry.ToString();
  EXPECT_NE(retry.ToString().find("reopen"), std::string::npos)
      << retry.ToString();

  // After a reopen (consistent replay base) the repair goes through.
  Provider again;
  ASSERT_TRUE(again.OpenStore(dir).ok());
  ASSERT_EQ(again.DegradedModels().size(), 1u);
  store::RepairStats stats2;
  ASSERT_TRUE(again.Repair("NB", &stats2).ok());
  EXPECT_EQ(stats2.records_reapplied, 1u);
  EXPECT_TRUE(again.DegradedModels().empty());
  auto conn = again.Connect();
  ASSERT_TRUE(conn->Execute(kNbPredictQuery).ok());
}

// Losing the .reason sidecar must not orphan a quarantine: the owning model
// comes back from the shard file's own 'H' header, so the model stays
// degraded instead of forking its history onto a fresh shard. If even the
// header is unreadable, the quarantine may own ANY model, so every
// new-shard creation is refused until it is repaired.
TEST(StoreTest, SidecarLossRecoversOwnerFromShardHeader) {
  std::string dir = StoreDir("sidecarloss");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : NbScript()) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
  }
  CorruptRecord(FindShard(dir, "shard-m"), 2);
  {  // Quarantine the shard, then lose its sidecar.
    Provider first;
    ASSERT_TRUE(first.OpenStore(dir).ok());
    ASSERT_EQ(first.DegradedModels().size(), 1u);
  }
  std::string qfile = FindShard(dir + "/quarantine", "shard-m");
  ASSERT_TRUE(Env::Default()->DeleteFile(qfile + ".reason").ok());

  {
    Provider reopened;
    ASSERT_TRUE(reopened.OpenStore(dir).ok());
    auto degraded = reopened.DegradedModels();
    ASSERT_EQ(degraded.size(), 1u);
    EXPECT_EQ(degraded[0].first, "NB");
    auto conn = reopened.Connect();
    auto insert = conn->Execute(NbScript()[3]);
    ASSERT_FALSE(insert.ok());
    EXPECT_TRUE(insert.status().IsUnavailable())
        << insert.status().ToString();
  }

  // Damage the header record too: the quarantine is now unattributable.
  auto qdata = Env::Default()->ReadFileToString(qfile);
  ASSERT_TRUE(qdata.ok());
  (*qdata)[8] ^= 0x01;  // first payload byte of the 'H' header record
  ASSERT_TRUE(Env::Default()->WriteStringToFile(qfile, *qdata, true).ok());

  Provider blind;
  ASSERT_TRUE(blind.OpenStore(dir).ok());
  auto conn = blind.Connect();
  ASSERT_TRUE(conn->Execute(
                      "CREATE MINING MODEL [NB2] ([Id] LONG KEY, "
                      "[Age] DOUBLE DISCRETIZED, [Loyalty] LONG DISCRETE "
                      "PREDICT) USING Naive_Bayes")
                  .ok());
  auto train = conn->Execute(
      "INSERT INTO [NB2] SELECT [Id], [Age], [Loyalty] FROM People");
  ASSERT_FALSE(train.ok());
  EXPECT_TRUE(train.status().IsUnavailable()) << train.status().ToString();
  EXPECT_NE(train.status().ToString().find("no recorded owner"),
            std::string::npos)
      << train.status().ToString();
}

TEST(StoreTest, StaleSweepSparesUserFilesAndQuarantine) {
  std::string dir = StoreDir("sweep_ns");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
    ASSERT_TRUE(provider.Checkpoint().ok());
    ASSERT_TRUE(
        conn->Execute("INSERT INTO People VALUES (7, 28, 120, 0)").ok());
  }
  Env* env = Env::Default();
  // A user file, an orphaned temp file, a shard the MANIFEST never heard of
  // (an unreadable header means its creation was never acknowledged), and an
  // uncommitted snapshot.
  ASSERT_TRUE(env->WriteStringToFile(dir + "/notes.txt", "user data").ok());
  ASSERT_TRUE(env->WriteStringToFile(dir + "/leftover.tmp", "junk").ok());
  ASSERT_TRUE(
      env->WriteStringToFile(dir + "/shard-m000099-000001.log", "junk").ok());
  ASSERT_TRUE(env->WriteStringToFile(dir + "/snapshot-000099", "junk").ok());

  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 0u);
  {
    // Recovery round-tripped the checkpointed + journaled state.
    Provider oracle;
    auto oconn = oracle.Connect();
    ASSERT_TRUE(oconn->Execute(Script()[0]).ok());
    ASSERT_TRUE(oconn->Execute(Script()[1]).ok());
    ASSERT_TRUE(
        oconn->Execute("INSERT INTO People VALUES (7, 28, 120, 0)").ok());
    EXPECT_EQ(StateString(&reopened), StateString(&oracle));
  }
  // Only the store's own stale namespace is swept; the user file survives.
  EXPECT_TRUE(env->FileExists(dir + "/notes.txt"));
  EXPECT_FALSE(env->FileExists(dir + "/leftover.tmp"));
  EXPECT_FALSE(env->FileExists(dir + "/shard-m000099-000001.log"));
  EXPECT_FALSE(env->FileExists(dir + "/snapshot-000099"));
  // The committed snapshot is untouched.
  EXPECT_FALSE(FindSnapshot(dir).empty());
}

TEST(StoreTest, ParallelRecoveryMatchesSerial) {
  std::string dir = StoreDir("parallel");
  constexpr int kModels = 5;
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    ASSERT_TRUE(conn->Execute(Script()[0]).ok());
    ASSERT_TRUE(conn->Execute(Script()[1]).ok());
    for (int i = 0; i < kModels; ++i) {
      const std::string name = "NB" + std::to_string(i);
      ASSERT_TRUE(conn->Execute("CREATE MINING MODEL [" + name +
                                "] ([Id] LONG KEY, [Age] DOUBLE DISCRETIZED, "
                                "[Loyalty] LONG DISCRETE PREDICT) "
                                "USING Naive_Bayes")
                      .ok());
      ASSERT_TRUE(conn->Execute("INSERT INTO [" + name +
                                "] SELECT [Id], [Age], [Loyalty] FROM People")
                      .ok());
    }
  }

  std::string serial_state;
  {
    Provider serial;
    store::StoreOptions options;
    options.recovery_threads = 1;
    ASSERT_TRUE(serial.OpenStore(dir, options).ok());
    EXPECT_EQ(serial.store()->recovery_stats().shards_recovered,
              1u + kModels);  // catalog + one shard per model
    serial_state = StateString(&serial);
  }

  Provider parallel;
  store::StoreOptions options;
  options.recovery_threads = 4;
  ASSERT_TRUE(parallel.OpenStore(dir, options).ok());
  EXPECT_EQ(parallel.store()->recovery_stats().shards_recovered,
            1u + kModels);
  EXPECT_EQ(StateString(&parallel), serial_state);
  EXPECT_GE(parallel.store()->recovery_report().size(), 1u + kModels);
}

TEST(StoreTest, SnapshotDamageSurfacesCorruption) {
  std::string dir = StoreDir("badsnap");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
    ASSERT_TRUE(provider.Checkpoint().ok());
  }
  std::string snapshot = FindSnapshot(dir);
  auto data = Env::Default()->ReadFileToString(snapshot);
  ASSERT_TRUE(data.ok());
  (*data)[data->size() / 2] ^= 0x01;
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(snapshot, *data, true).ok());

  // The snapshot is the shared base of every shard: there is no per-model
  // blast radius to contain, so damage is still a failed open.
  Provider reopened;
  Status status = reopened.OpenStore(dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(StoreTest, ImportedModelSurvivesSourceFileDeletion) {
  // Train and export from a store-less provider.
  std::string xml = ::testing::TempDir() + "/store_test_import.xml";
  {
    Provider trainer;
    auto conn = trainer.Connect();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
    ASSERT_TRUE(
        conn->Execute("EXPORT MINING MODEL [M] TO '" + xml + "'").ok());
  }

  std::string dir = StoreDir("import");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    auto result =
        conn->Execute("IMPORT MINING MODEL FROM '" + xml + "'");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // The journal must not depend on the exported file still existing.
  ASSERT_TRUE(Env::Default()->DeleteFile(xml).ok());

  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  EXPECT_EQ(reopened.store()->recovery_stats().replayed_blobs, 1u);
  auto model = reopened.models()->GetModel("M");
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE((*model)->is_trained());
  EXPECT_DOUBLE_EQ((*model)->case_count(), 6.0);
}

TEST(StoreTest, RecoveredStateReplacesPreloadedObjects) {
  std::string dir = StoreDir("authoritative");
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(conn->Execute(Script()[i]).ok());
    }
    ASSERT_TRUE(provider.Checkpoint().ok());
  }
  // A provider that already has a conflicting People table (e.g. dmxsh
  // --warehouse preload) — the recovered snapshot wins.
  Provider reopened;
  auto conn = reopened.Connect();
  ASSERT_TRUE(conn->Execute("CREATE TABLE People (Id LONG)").ok());
  ASSERT_TRUE(conn->Execute("INSERT INTO People VALUES (99)").ok());
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  EXPECT_EQ(StateString(&reopened), OracleState(2));
}

// ---------------------------------------------------------------------------
// Crash-point sweep — the acceptance criterion. With FaultInjectionEnv
// failing at every successive write/fsync/rename/... offset (and as a torn
// write, and as ENOSPC), reopening the store must always succeed with a
// clean env and recover EXACTLY the successfully-executed statement prefix:
// never a partial statement, never a crash, never a quarantine — injected
// crashes are torn tails and lost appends, not mid-log damage. The workload
// spans the catalog shard, a blob shard (with an epoch-bumping rotation) and
// an incremental statement shard, with auto-checkpoints rewriting the
// MANIFEST mid-run.
// ---------------------------------------------------------------------------

const std::vector<std::string>& SweepScript() {
  static const std::vector<std::string> kScript = [] {
    std::vector<std::string> script = Script();
    script.push_back(
        "CREATE MINING MODEL [N] ([Id] LONG KEY, [Age] DOUBLE DISCRETIZED, "
        "[Loyalty] LONG DISCRETE PREDICT) USING Naive_Bayes");
    script.push_back(
        "INSERT INTO [N] SELECT [Id], [Age], [Loyalty] FROM People");
    return script;
  }();
  return kScript;
}

class CrashPointSweep
    : public ::testing::TestWithParam<FaultInjectionEnv::FaultKind> {};

const char* KindName(FaultInjectionEnv::FaultKind kind) {
  switch (kind) {
    case FaultInjectionEnv::FaultKind::kIOError: return "IOError";
    case FaultInjectionEnv::FaultKind::kTornWrite: return "TornWrite";
    case FaultInjectionEnv::FaultKind::kNoSpace: return "NoSpace";
  }
  return "Unknown";
}

TEST_P(CrashPointSweep, EveryFaultOffsetRecoversToAPrefix) {
  const FaultInjectionEnv::FaultKind kind = GetParam();
  // The three kinds run as separate concurrent ctest processes — keep their
  // scratch directories disjoint.
  const std::string tag = KindName(kind);
  const std::vector<std::string>& script = SweepScript();

  // Pass 1: count the mutating ops of a fault-free run.
  int64_t total_ops = 0;
  {
    std::string dir = StoreDir("sweep_count_" + tag);
    FaultInjectionEnv env(Env::Default());
    env.ArmFault(INT64_MAX, kind);
    store::StoreOptions options;
    options.env = &env;
    options.auto_checkpoint_interval = 4;  // exercise mid-run checkpoints
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir, options).ok());
    auto conn = provider.Connect();
    for (const std::string& statement : script) {
      ASSERT_TRUE(conn->Execute(statement).ok());
    }
    total_ops = env.op_count();
    ASSERT_FALSE(env.fault_fired());
  }
  ASSERT_GT(total_ops, 10);

  // Cache oracle states — StateString per statement prefix.
  std::vector<std::string> oracle(script.size() + 1);
  for (size_t i = 0; i <= script.size(); ++i) {
    oracle[i] = OracleState(script, i);
  }

  // Pass 2: fail at every offset.
  for (int64_t fail_at = 0; fail_at < total_ops; ++fail_at) {
    SCOPED_TRACE("fail_at=" + std::to_string(fail_at));
    std::string dir = StoreDir("sweep_" + tag);
    FaultInjectionEnv env(Env::Default());
    env.ArmFault(fail_at, kind);
    store::StoreOptions options;
    options.env = &env;
    options.auto_checkpoint_interval = 4;

    size_t ok_prefix = 0;
    {
      Provider provider;
      if (provider.OpenStore(dir, options).ok()) {
        auto conn = provider.Connect();
        for (const std::string& statement : script) {
          if (!conn->Execute(statement).ok()) break;
          ++ok_prefix;
        }
      }
    }

    // Reopen with a healthy filesystem: recovery must succeed — an injected
    // crash or ENOSPC is never corruption — and land on the state of a
    // statement PREFIX. The failing statement itself may or may not be
    // durable (its WAL bytes can reach the disk even when the fsync reports
    // the fault), but a statement must never be half-applied, and a crash
    // must never quarantine a shard.
    Provider reopened;
    Status status = reopened.OpenStore(dir);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 0u);
    std::string recovered = StateString(&reopened);
    size_t next = std::min(ok_prefix + 1, script.size());
    EXPECT_TRUE(recovered == oracle[ok_prefix] || recovered == oracle[next])
        << "ok_prefix=" << ok_prefix << "\nrecovered:\n"
        << recovered << "\nexpected either prefix " << ok_prefix << ":\n"
        << oracle[ok_prefix] << "\nor prefix " << next << ":\n"
        << oracle[next];
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultKinds, CrashPointSweep,
    ::testing::Values(FaultInjectionEnv::FaultKind::kIOError,
                      FaultInjectionEnv::FaultKind::kTornWrite,
                      FaultInjectionEnv::FaultKind::kNoSpace),
    [](const ::testing::TestParamInfo<FaultInjectionEnv::FaultKind>& info) {
      return KindName(info.param);
    });

// Record framing unit coverage: ParseLog's three verdicts.
TEST(LogFormatTest, ParseLogVerdicts) {
  std::string log;
  store::AppendRecordTo(&log, "alpha");
  store::AppendRecordTo(&log, "beta");

  auto clean = store::ParseLog(log);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->torn_tail);
  ASSERT_EQ(clean->records.size(), 2u);
  EXPECT_EQ(clean->records[0], "alpha");
  EXPECT_EQ(clean->records[1], "beta");
  EXPECT_EQ(clean->valid_bytes, log.size());

  // Every strict prefix that cuts into the second record is a torn tail
  // preserving record one.
  for (size_t cut = clean->valid_bytes - 1; cut > 13; --cut) {
    auto torn = store::ParseLog(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(torn.ok()) << "cut=" << cut;
    EXPECT_TRUE(torn->torn_tail);
    ASSERT_EQ(torn->records.size(), 1u);
    EXPECT_EQ(torn->records[0], "alpha");
  }

  // A corrupted first record with a healthy record after it is mid-log
  // damage.
  std::string damaged = log;
  damaged[9] ^= 0x01;  // inside "alpha"'s payload
  auto corrupt = store::ParseLog(damaged);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption);

  // The same damage on the FINAL record is indistinguishable from a torn
  // write and recovers silently.
  std::string tail_damaged = log;
  tail_damaged[tail_damaged.size() - 1] ^= 0x01;
  auto tail = store::ParseLog(tail_damaged);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail->torn_tail);
  ASSERT_EQ(tail->records.size(), 1u);

  // A zero-filled tail (preallocated blocks after power loss) must never
  // frame as valid empty records — the masked, header-covering CRC rejects
  // it — and, running to EOF, it is a torn tail, not corruption.
  std::string zero_tail = log + std::string(32, '\0');
  auto zeros = store::ParseLog(zero_tail);
  ASSERT_TRUE(zeros.ok());
  EXPECT_TRUE(zeros->torn_tail);
  ASSERT_EQ(zeros->records.size(), 2u);
  EXPECT_EQ(zeros->valid_bytes, log.size());

  // An all-zero file is an empty torn log, not a log of empty records.
  auto all_zero = store::ParseLog(std::string(24, '\0'));
  ASSERT_TRUE(all_zero.ok());
  EXPECT_TRUE(all_zero->torn_tail);
  EXPECT_TRUE(all_zero->records.empty());
}

}  // namespace
}  // namespace dmx
