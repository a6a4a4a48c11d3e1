#include "core/provider.h"

#include <cassert>
#include <chrono>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>

#include "algorithms/builtin_services.h"
#include "common/mutex.h"
#include "core/caseset_source.h"
#include "core/prediction_join.h"
#include "core/schema_rowsets.h"
#include "pmml/pmml.h"
#include "relational/sql_executor.h"
#include "store/log_format.h"

namespace dmx {

namespace {

// Snapshot schema encoding: u32 column count, then per column the type name
// and column name, each length-prefixed (names may contain any byte).
std::string EncodeSchema(const Schema& schema) {
  std::string out;
  store::PutFixed32(&out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    store::PutLengthPrefixed(&out, DataTypeToString(col.type));
    store::PutLengthPrefixed(&out, col.name);
  }
  return out;
}

Result<std::shared_ptr<const Schema>> DecodeSchema(const std::string& meta) {
  std::string_view src(meta);
  uint32_t num_columns = 0;
  if (!store::GetFixed32(&src, &num_columns)) {
    return Corruption() << "table snapshot schema is truncated";
  }
  std::vector<ColumnDef> columns;
  columns.reserve(num_columns);
  for (uint32_t i = 0; i < num_columns; ++i) {
    std::string_view type_name;
    std::string_view col_name;
    if (!store::GetLengthPrefixed(&src, &type_name) ||
        !store::GetLengthPrefixed(&src, &col_name)) {
      return Corruption() << "table snapshot schema is truncated";
    }
    DMX_ASSIGN_OR_RETURN(DataType type,
                         DataTypeFromString(std::string(type_name)));
    columns.emplace_back(std::string(col_name), type);
  }
  return Schema::Make(std::move(columns));
}

/// Acquires `mu` exclusively while honouring the statement's guard: a waiter
/// whose deadline lapses or whose token is cancelled gives up (returning
/// false with `*trip` set) instead of queueing on the mutex forever. The
/// TRY_ACQUIRE annotation tells the analysis the lock is held iff this
/// returns true.
bool LockExclusiveWithGuard(SharedMutex* mu, ExecGuard* guard, Status* trip)
    DMX_TRY_ACQUIRE(true, mu) {
  if (!guard->has_deadline() && guard->cancel_token() == nullptr) {
    mu->Lock();
    return true;
  }
  while (!mu->TryLockFor(std::chrono::milliseconds(5))) {
    Status check = guard->Check();
    if (!check.ok()) {
      *trip = check.WithContext("waiting for the catalog lock");
      return false;
    }
  }
  return true;
}

/// Shared-mode counterpart of LockExclusiveWithGuard.
bool LockSharedWithGuard(SharedMutex* mu, ExecGuard* guard, Status* trip)
    DMX_TRY_ACQUIRE_SHARED(true, mu) {
  if (!guard->has_deadline() && guard->cancel_token() == nullptr) {
    mu->LockShared();
    return true;
  }
  while (!mu->TryLockSharedFor(std::chrono::milliseconds(5))) {
    Status check = guard->Check();
    if (!check.ok()) {
      *trip = check.WithContext("waiting for the catalog lock");
      return false;
    }
  }
  return true;
}

}  // namespace

/// Bridges the durable store to the provider's catalogs: replays journaled
/// statements / model blobs on recovery and serializes the whole catalog
/// (tables as CSV, models as PMML) for snapshots. Every entry point runs on
/// a thread that already owns the catalog lock exclusively (OpenStore during
/// recovery, a mutating statement or Checkpoint during snapshots), which the
/// AssertHeld calls make visible to the thread-safety analysis.
class Provider::CatalogStoreClient : public store::StoreClient {
 public:
  explicit CatalogStoreClient(Provider* provider) : provider_(provider) {}

  Status ApplyStatement(const std::string& text) override {
    // Recovery runs before the store is attached to the provider, so this
    // Execute cannot re-journal the statement. The internal connection also
    // skips guards and admission, and asserts (rather than takes) the
    // catalog lock: OpenStore already owns it.
    std::unique_ptr<Connection> conn = provider_->ConnectInternal();
    return conn->Execute(text).status().WithContext(
        "re-executing recovered statement");
  }

  // --- parallel-recovery seam: Prepare* run on the store's recovery worker
  // threads while the OpenStore thread owns the catalog lock exclusively
  // and blocks joining the pool (Repair calls them on its own thread).
  // Reading the (unchanging, lock-protected-by-the-parked-owner) service
  // registry is therefore safe, but neither the static analysis nor
  // AssertHeld's per-thread ownership check can see that cross-thread
  // ownership — hence the suppression.

  Result<store::PreparedObject> PrepareModelBlob(const std::string& pmml)
      override DMX_NO_THREAD_SAFETY_ANALYSIS {
    auto holder = std::make_shared<PreparedModel>();
    DMX_ASSIGN_OR_RETURN(holder->model,
                         DeserializeModel(pmml, provider_->services_));
    return store::PreparedObject(std::move(holder));
  }

  Status ApplyPreparedModel(const std::string& name,
                            const store::PreparedObject& prepared) override {
    provider_->catalog_mu_.AssertHeld();
    auto* holder = static_cast<PreparedModel*>(prepared.get());
    // The store is authoritative: replace any same-named in-memory model.
    if (provider_->models_.HasModel(name)) {
      DMX_RETURN_IF_ERROR(provider_->models_.DropModel(name));
    }
    return provider_->models_.AdoptModel(std::move(holder->model));
  }

  Result<store::PreparedObject> PrepareTableSnapshot(
      const store::StoreRecord& record) override {
    // Pure parsing — touches no provider state, so it needs no lock claim.
    auto holder = std::make_shared<PreparedTable>();
    DMX_ASSIGN_OR_RETURN(holder->schema, DecodeSchema(record.meta));
    DMX_ASSIGN_OR_RETURN(holder->rowset,
                         rel::ParseCsvString(record.data, holder->schema));
    return store::PreparedObject(std::move(holder));
  }

  Status ApplyPreparedTable(const store::StoreRecord& record,
                            const store::PreparedObject& prepared) override {
    provider_->catalog_mu_.AssertHeld();
    auto* holder = static_cast<PreparedTable*>(prepared.get());
    rel::Database* db = &provider_->database_;
    if (db->HasTable(record.name)) {
      DMX_RETURN_IF_ERROR(db->DropTable(record.name));
    }
    DMX_ASSIGN_OR_RETURN(rel::Table * table,
                         db->CreateTable(record.name, holder->schema));
    return table->InsertAll(std::move(holder->rowset.mutable_rows()));
  }

  Result<std::vector<store::StoreRecord>> CaptureSnapshot() override {
    provider_->catalog_mu_.AssertHeld();
    std::vector<store::StoreRecord> out;
    for (const std::string& name : provider_->database_.ListTables()) {
      DMX_ASSIGN_OR_RETURN(rel::Table * table,
                           provider_->database_.GetTable(name));
      store::StoreRecord record;
      record.kind = 'T';
      record.name = table->name();
      record.meta = EncodeSchema(*table->schema());
      record.data = rel::ToCsvString(*table->schema(), table->rows());
      out.push_back(std::move(record));
    }
    for (const std::string& name : provider_->models_.ListModels()) {
      DMX_ASSIGN_OR_RETURN(MiningModel * model,
                           provider_->models_.GetModel(name));
      store::StoreRecord record;
      record.kind = 'M';
      record.name = model->definition().model_name;
      DMX_ASSIGN_OR_RETURN(record.data, SerializeModel(*model));
      out.push_back(std::move(record));
    }
    return out;
  }

 private:
  /// Holders passed through the opaque PreparedObject seam.
  struct PreparedModel {
    std::unique_ptr<MiningModel> model;
  };
  struct PreparedTable {
    std::shared_ptr<const Schema> schema;
    Rowset rowset;
  };

  Provider* provider_;
};

// The database reads the provider's schema rowsets and model content as
// read-only tables through this resolver. Only SELECTs reach it, under the
// shared catalog lock or the exclusive one of a statement that reads them.
// A degraded model's content answers kUnavailable, naming its quarantined
// shard, before the name is resolved (see CheckModelServable).
Provider::Provider()
    : database_([this](const std::string& name)
                    -> Result<std::unique_ptr<rel::Table>> {
        catalog_mu_.AssertReaderHeld();
        if (std::optional<std::string> model = ContentModelName(name)) {
          DMX_RETURN_IF_ERROR(CheckModelServable(*model));
        }
        return BuildSystemTable(name, services_, models_);
      }) {
  Status status = RegisterBuiltinServices(&services_);
  assert(status.ok());
  (void)status;
}

Provider::~Provider() = default;

std::unique_ptr<Connection> Provider::Connect() {
  return std::make_unique<Connection>(this);
}

std::unique_ptr<Connection> Provider::ConnectInternal() {
  return std::unique_ptr<Connection>(
      new Connection(this, /*internal=*/true));
}

void Provider::SetAdmissionLimits(uint32_t max_active, uint32_t max_queued) {
  admission_.SetLimits(max_active, max_queued);
}

void Provider::SetTenantAdmissionLimits(uint32_t max_active,
                                        uint32_t max_queued) {
  admission_.SetTenantLimits(max_active, max_queued);
}

Status Provider::OpenStore(const std::string& store_dir,
                           store::StoreOptions options) {
  // Exclusive: recovery rewrites the catalogs, and the one-shot check below
  // must not race with a concurrent OpenStore or statement.
  WriterMutexLock lock(&catalog_mu_);
  if (store_client_ != nullptr) {
    return InvalidState()
           << "OpenStore may be called at most once per provider"
           << (store_ != nullptr ? " (a store is already attached at '" +
                                       store_->dir() + "')"
                                 : "");
  }
  store_client_ = std::make_unique<CatalogStoreClient>(this);
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(store_dir, store_client_.get(), options);
  if (!store.ok()) {
    return store.status().WithContext("attaching durable store");
  }
  store_ = std::move(store).value();
  // Shards that failed recovery were quarantined rather than failing the
  // open; degrade their models (and the whole store, for the catalog shard).
  RefreshDegradedLocked();
  return Status::OK();
}

void Provider::RefreshDegradedLocked() {
  degraded_models_.clear();
  store_read_only_ = false;
  if (store_ == nullptr) return;
  store::StoreStatus status = store_->GetStatus();
  for (const store::ShardStatus& shard : status.shards) {
    if (!shard.quarantined) continue;
    if (shard.id == store::kCatalogShardId) {
      store_read_only_ = true;
    } else if (!shard.model.empty()) {
      degraded_models_[shard.model] = DegradedState{shard.id, shard.reason};
    }
  }
}

Status Provider::CheckModelServable(const std::string& name) const {
  auto it = degraded_models_.find(name);
  if (it == degraded_models_.end()) return Status::OK();
  Status status = Unavailable() << "model '" << name
                                << "' is degraded: " << it->second.reason;
  return status.WithContext("quarantined shard '" + it->second.shard_id +
                            "'");
}

Status Provider::CheckStoreWritable() const {
  if (!store_read_only_) return Status::OK();
  Status status = Unavailable()
                  << "the store is read-only: its catalog shard failed "
                     "recovery; repair the shard to restore writes";
  return status.WithContext(std::string("quarantined shard '") +
                            store::kCatalogShardId + "'");
}

Status Provider::Repair(const std::string& target,
                        store::RepairStats* stats) {
  // Exclusive for the same reason as OpenStore: the repair replays the
  // shard's records into the catalogs through an internal connection.
  WriterMutexLock lock(&catalog_mu_);
  if (store_ == nullptr) {
    return InvalidState() << "no durable store attached";
  }
  std::string shard_id;
  store::StoreStatus status = store_->GetStatus();
  for (const store::ShardStatus& shard : status.shards) {
    if (shard.quarantined &&
        (shard.id == target || (!shard.model.empty() &&
                                shard.model == target))) {
      shard_id = shard.id;
      break;
    }
  }
  if (shard_id.empty()) {
    return NotFound() << "no quarantined shard or degraded model '" << target
                      << "'";
  }
  DMX_RETURN_IF_ERROR(store_->Repair(shard_id, stats));
  RefreshDegradedLocked();
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> Provider::DegradedModels()
    const {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(degraded_models_.size());
  for (const auto& [model, state] : degraded_models_) {
    out.emplace_back(model, state.reason);
  }
  return out;
}

Status Provider::Checkpoint() {
  // Exclusive: a snapshot must capture a statement-consistent catalog image
  // and must never interleave with WAL appends.
  WriterMutexLock lock(&catalog_mu_);
  if (store_ == nullptr) {
    return InvalidState() << "no durable store attached";
  }
  return store_->Checkpoint();
}

Status Provider::JournalStatementLocked(const std::string& text) {
  if (store_ == nullptr) return Status::OK();
  return store_->JournalStatement(text);
}

Result<Rowset> Connection::Execute(const std::string& command) {
  ExecGuard guard(limits_);
  return ExecuteGuarded(command, &guard);
}

Result<Rowset> Connection::ExecuteGuarded(const std::string& command,
                                          ExecGuard* guard) {
  SourceSpan read_only_table;
  Result<DmxParseResult> parsed = ParseDmx(command, &read_only_table);
  if (!parsed.ok()) {
    // A well-formed write to a read-only table is refused, not misparsed.
    return parsed.status().WithContext(read_only_table.valid()
                                           ? "checking the write target"
                                           : "parsing statement");
  }

  // Lock regime: reads share the catalogs, everything that can mutate them
  // is exclusive. DELETE FROM is ambiguous (model or table) and mutates
  // either way; EXPORT only reads catalog state.
  bool read_only;
  if (parsed->is_sql) {
    read_only = std::holds_alternative<rel::SelectStatement>(*parsed->sql);
  } else {
    const DmxStatement& statement = *parsed->statement;
    read_only = std::holds_alternative<PredictionJoinStatement>(statement) ||
                std::holds_alternative<ExportModelStatement>(statement);
  }

  // All file inputs (IMPORT documents, OPENROWSET casesets) are read here,
  // before any lock business: execution under the catalog mutex must never
  // wait on a disk. EXPORT is the mirror image — serialized under the lock,
  // written by FinishStatementIo after it drops.
  StatementIo io;
  if (!parsed->is_sql) {
    DMX_RETURN_IF_ERROR(PrepareStatementIo(*parsed, &io));
  }

  if (internal_) {
    // Recovery replay: OpenStore holds the catalog lock exclusively; assert
    // that ownership to the analysis instead of self-deadlocking on it.
    provider_->catalog_mu_.AssertHeld();
    if (read_only) return DispatchRead(*parsed, io);
    return DispatchWrite(*parsed, command, io);
  }

  // Admission before locks: a saturated provider rejects (or queues) the
  // statement without touching the catalog mutex. The "statement
  // admission" context frame marks the one rejection made *before*
  // execution begins — the serving front end's licence to tell clients
  // "retry" (a row-budget kResourceExhausted mid-statement never gets it).
  Status admitted = provider_->admission_.Admit(guard, tenant_);
  if (!admitted.ok()) {
    return admitted.WithContext("statement admission");
  }
  AdmissionSlot slot(&provider_->admission_, tenant_);
  ExecGuardScope scope(guard);

  if (read_only) {
    Status trip;
    if (!LockSharedWithGuard(&provider_->catalog_mu_, guard, &trip)) {
      return trip;
    }
    Result<Rowset> result = [&]() -> Result<Rowset> {
      AdoptedReaderLock lock(&provider_->catalog_mu_);
      return DispatchRead(*parsed, io);
    }();
    if (result.ok()) {
      DMX_RETURN_IF_ERROR(FinishStatementIo(io));
    }
    return result;
  }
  Status trip;
  if (!LockExclusiveWithGuard(&provider_->catalog_mu_, guard, &trip)) {
    return trip;
  }
  Result<Rowset> result = [&]() -> Result<Rowset> {
    AdoptedWriterLock lock(&provider_->catalog_mu_);
    return DispatchWrite(*parsed, command, io);
  }();
  if (result.ok()) {
    DMX_RETURN_IF_ERROR(FinishStatementIo(io));
  }
  return result;
}

Status Connection::PrepareStatementIo(const DmxParseResult& parsed,
                                      StatementIo* io) {
  const DmxStatement& statement = *parsed.statement;
  if (const auto* import_stmt =
          std::get_if<ImportModelStatement>(&statement)) {
    Result<std::string> document =
        Env::Default()->ReadFileToString(import_stmt->path);
    if (!document.ok()) {
      return document.status().WithContext("importing model from '" +
                                           import_stmt->path + "'");
    }
    io->import_document = std::move(*document);
    return Status::OK();
  }
  if (const auto* insert = std::get_if<InsertIntoStatement>(&statement)) {
    DMX_ASSIGN_OR_RETURN(io->caseset_rows,
                         PreloadCasesetSource(insert->source));
    return Status::OK();
  }
  if (const auto* join = std::get_if<PredictionJoinStatement>(&statement)) {
    DMX_ASSIGN_OR_RETURN(io->caseset_rows,
                         PreloadCasesetSource(join->source));
    return Status::OK();
  }
  if (const auto* export_stmt =
          std::get_if<ExportModelStatement>(&statement)) {
    io->export_path = export_stmt->path;
  }
  return Status::OK();
}

Status Connection::FinishStatementIo(StatementIo& io) {
  if (!io.export_document.has_value()) return Status::OK();
  return Env::Default()
      ->AtomicWriteFile(io.export_path, *io.export_document)
      .WithContext("exporting model '" + io.export_model + "'");
}

Result<Rowset> Connection::DispatchRead(DmxParseResult& parsed,
                                        StatementIo& io) {
  if (parsed.is_sql) {
    return rel::Execute(&provider_->database_, *parsed.sql);
  }
  DmxStatement& statement = *parsed.statement;

  // Degraded models answer kUnavailable (naming their quarantined shard)
  // before name resolution, so clients can tell "temporarily unserveable"
  // from "does not exist". Internal (recovery/repair) connections bypass
  // the check — they are the path that un-degrades a model.
  if (!internal_) {
    const std::string* target = nullptr;
    if (auto* join = std::get_if<PredictionJoinStatement>(&statement)) {
      target = &join->model_name;
    } else if (auto* export_stmt =
                   std::get_if<ExportModelStatement>(&statement)) {
      target = &export_stmt->model_name;
    }
    if (target != nullptr) {
      DMX_RETURN_IF_ERROR(provider_->CheckModelServable(*target));
    }
  }

  if (auto* join = std::get_if<PredictionJoinStatement>(&statement)) {
    Result<Rowset> rowset =
        ExecutePredictionJoin(provider_->database_, &provider_->models_,
                              *join, &io.caseset_rows);
    if (!rowset.ok()) {
      return rowset.status().WithContext("predicting with model '" +
                                         join->model_name + "'");
    }
    return rowset;
  }
  if (auto* export_stmt = std::get_if<ExportModelStatement>(&statement)) {
    DMX_ASSIGN_OR_RETURN(
        const MiningModel* model,
        provider_->models_.GetModel(export_stmt->model_name));
    // Reads catalog state only — nothing to journal. Serialize under the
    // shared lock; the file write itself is FinishStatementIo's, after the
    // lock is released.
    Result<std::string> document = SerializeModel(*model);
    if (!document.ok()) {
      return document.status().WithContext("exporting model '" +
                                           export_stmt->model_name + "'");
    }
    io.export_document = std::move(*document);
    io.export_model = export_stmt->model_name;
    return Rowset();
  }
  return Internal() << "read-only dispatch of a mutating DMX statement";
}

Result<Rowset> Connection::DispatchWrite(DmxParseResult& parsed,
                                         const std::string& command,
                                         StatementIo& io) {
  // Store-wide read-only degraded mode: while the catalog shard is
  // quarantined no mutation can be journaled, so none may execute. Degraded
  // models refuse writes the same way reads do — their quarantined shard is
  // the only durable home for these statements. Internal connections bypass
  // both checks (they replay already-durable records).
  if (!internal_) {
    DMX_RETURN_IF_ERROR(provider_->CheckStoreWritable());
  }

  if (parsed.is_sql) {
    DMX_ASSIGN_OR_RETURN(Rowset rowset,
                         rel::Execute(&provider_->database_, *parsed.sql));
    DMX_RETURN_IF_ERROR(JournalLocked(command));
    return rowset;
  }
  DmxStatement& statement = *parsed.statement;

  if (auto* create = std::get_if<CreateModelStatement>(&statement)) {
    if (!internal_) {
      // A degraded model still owns its name: its quarantined shard will
      // re-materialize it on Repair, so a colliding CREATE is refused.
      DMX_RETURN_IF_ERROR(
          provider_->CheckModelServable(create->definition.model_name));
    }
    DMX_RETURN_IF_ERROR(provider_->models_
                            .CreateModel(std::move(create->definition),
                                         provider_->services_)
                            .status());
    DMX_RETURN_IF_ERROR(JournalLocked(command));
    return Rowset();
  }
  if (auto* insert = std::get_if<InsertIntoStatement>(&statement)) {
    if (!internal_) {
      DMX_RETURN_IF_ERROR(provider_->CheckModelServable(insert->model_name));
    }
    DMX_ASSIGN_OR_RETURN(MiningModel * model,
                         provider_->models_.GetModel(insert->model_name));
    // InsertCases is all or nothing: a failed statement, guarded or not,
    // leaves the model as it was.
    Status trained = [&]() -> Status {
      DMX_ASSIGN_OR_RETURN(
          std::unique_ptr<RowsetReader> reader,
          OpenCasesetSource(provider_->database_, insert->source,
                            &io.caseset_rows));
      return model->InsertCases(
          reader.get(), insert->columns.empty() ? nullptr : &insert->columns);
    }();
    if (!trained.ok()) {
      return trained.WithContext("training model '" + insert->model_name +
                                 "'");
    }
    if (internal_) {
      // Recovery/repair replay: the record being applied is already durable
      // in the shard being replayed.
    } else if (provider_->store_ != nullptr &&
               !model->service().capabilities().supports_incremental) {
      // Non-incremental training is not a pure function of (catalog,
      // statement): the retrain folds in the volatile case cache, which
      // snapshots do not capture. Replaying the statement after a snapshot
      // restore would retrain on the new rows alone and silently shrink the
      // model (fuzz finding: fuzz/regressions/store_recovery/
      // retrain-after-checkpoint). Journal the trained model itself — the
      // IMPORT precedent — so recovery restores the exact post-statement
      // state.
      DMX_ASSIGN_OR_RETURN(std::string pmml, SerializeModel(*model));
      DMX_RETURN_IF_ERROR(provider_->store_->JournalModelBlob(
          model->definition().model_name, pmml));
    } else if (provider_->store_ != nullptr) {
      // Incremental training is replayable: journal the statement into the
      // model's own WAL shard.
      DMX_RETURN_IF_ERROR(provider_->store_->JournalModelStatement(
          insert->model_name, command));
    }
    return Rowset();
  }
  if (auto* del = std::get_if<DeleteFromModelStatement>(&statement)) {
    if (!internal_) {
      DMX_RETURN_IF_ERROR(provider_->CheckModelServable(del->model_name));
    }
    // DELETE FROM is shared syntax: models win, tables fall through.
    if (provider_->models_.HasModel(del->model_name)) {
      DMX_ASSIGN_OR_RETURN(MiningModel * model,
                           provider_->models_.GetModel(del->model_name));
      DMX_RETURN_IF_ERROR(model->Reset());
      if (!internal_ && provider_->store_ != nullptr) {
        DMX_RETURN_IF_ERROR(provider_->store_->JournalModelStatement(
            del->model_name, command));
      }
    } else {
      DMX_RETURN_IF_ERROR(
          rel::Execute(&provider_->database_,
                       rel::DeleteStatement{del->model_name, nullptr})
              .status());
      DMX_RETURN_IF_ERROR(JournalLocked(command));
    }
    return Rowset();
  }
  if (auto* drop = std::get_if<DropModelStatement>(&statement)) {
    if (!internal_) {
      DMX_RETURN_IF_ERROR(provider_->CheckModelServable(drop->model_name));
    }
    DMX_RETURN_IF_ERROR(provider_->models_.DropModel(drop->model_name));
    DMX_RETURN_IF_ERROR(JournalLocked(command));
    return Rowset();
  }
  if (auto* import_stmt = std::get_if<ImportModelStatement>(&statement)) {
    // The document was read off disk by PrepareStatementIo, before the
    // exclusive lock; only the (in-memory) deserialization happens here,
    // because the service registry it binds against is lock-guarded.
    if (!io.import_document.has_value()) {
      return Internal() << "IMPORT document for '" << import_stmt->path
                        << "' was not preloaded before execution";
    }
    DMX_ASSIGN_OR_RETURN(
        std::unique_ptr<MiningModel> model,
        DeserializeModel(*io.import_document, provider_->services_));
    std::string name = model->definition().model_name;
    if (!internal_) {
      DMX_RETURN_IF_ERROR(provider_->CheckModelServable(name));
    }
    std::string pmml;
    const bool journal = !internal_ && provider_->store_ != nullptr;
    if (journal) {
      // Journal the serialized model itself, not the IMPORT statement:
      // replay must not depend on the external file still existing.
      DMX_ASSIGN_OR_RETURN(pmml, SerializeModel(*model));
    }
    DMX_RETURN_IF_ERROR(provider_->models_.AdoptModel(std::move(model)));
    if (journal) {
      DMX_RETURN_IF_ERROR(provider_->store_->JournalModelBlob(name, pmml));
    }
    return Rowset();
  }
  return Internal() << "unhandled DMX statement";
}

Status Connection::JournalLocked(const std::string& command) {
  if (internal_) return Status::OK();
  return provider_->JournalStatementLocked(command);
}

}  // namespace dmx
