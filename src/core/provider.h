// Provider / Connection: the in-process stand-in for the COM OLE DB provider
// objects (substitution documented in DESIGN.md). A Provider owns the three
// catalogs of Figure 1's server — relational tables, mining services and
// mining models; a Connection executes command strings against all of them
// through one pipe, the way ICommandText does:
//
//   dmx::Provider provider;
//   auto conn = provider.Connect();
//   conn->Execute("CREATE MINING MODEL ...");
//   conn->Execute("INSERT INTO [Age Prediction] (...) SHAPE {...} ...");
//   auto rowset = conn->Execute("SELECT ... PREDICTION JOIN ...");
//
// The provider is a *server* object: Connection::Execute is safe to call
// from many threads against one Provider. A catalog-level reader/writer lock
// regime serializes DDL/DML against concurrent reads (see DESIGN.md
// "Concurrency & execution guards" and "Static enforcement"), every
// statement runs under an ExecGuard (deadline, cancellation, row budgets —
// ExecLimits per connection), and an optional admission cap bounds how many
// statements execute at once. The lock regime is compiler-enforced: every
// catalog field is GUARDED_BY(catalog_mu_) and the read/write dispatch paths
// carry REQUIRES_SHARED / REQUIRES annotations checked by -Wthread-safety.

#ifndef DMX_CORE_PROVIDER_H_
#define DMX_CORE_PROVIDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/exec_guard.h"
#include "common/mutex.h"
#include "common/rowset.h"
#include "common/thread_annotations.h"
#include "core/admission.h"
#include "core/catalog.h"
#include "core/dmx_parser.h"
#include "model/service_registry.h"
#include "relational/database.h"
#include "relational/sql_ast.h"
#include "store/store.h"

namespace dmx {

class Connection;

/// \brief The data-mining provider: owns the database, the service registry
/// (preloaded with the built-in services) and the model catalog.
class Provider {
 public:
  Provider();
  ~Provider();  // out-of-line: CatalogStoreClient is defined in provider.cc

  /// Direct catalog accessors. These return the address of guarded state
  /// without taking the lock — the pointer escape the thread-safety analysis
  /// cannot track. They exist for *configuration time* (populating tables,
  /// inspecting catalogs in tests) before concurrent traffic starts; in a
  /// multi-threaded setting, mutate catalogs through Connection::Execute.
  rel::Database* database() { return &database_; }
  const rel::Database* database() const { return &database_; }
  ServiceRegistry* services() { return &services_; }
  const ServiceRegistry* services() const { return &services_; }
  ModelCatalog* models() { return &models_; }
  const ModelCatalog* models() const { return &models_; }

  /// Opens a session. Connections are lightweight views onto the provider;
  /// each carries its own ExecLimits. A connection itself is not thread-safe
  /// (its limits are plain fields) — open one per thread.
  std::unique_ptr<Connection> Connect();

  /// \brief Caps concurrent statement execution: at most `max_active`
  /// statements run at once, up to `max_queued` more wait for a slot, and
  /// anything beyond fails fast with kResourceExhausted. `max_active == 0`
  /// (the default) disables admission control.
  void SetAdmissionLimits(uint32_t max_active, uint32_t max_queued);

  /// \brief Per-tenant quota layered under the global cap: each named
  /// tenant (Connection::set_tenant; the server's session tenant id) is
  /// held to its own active/queued bounds. 0 disables the tenant layer.
  void SetTenantAdmissionLimits(uint32_t max_active, uint32_t max_queued);

  /// The admission gate (internally synchronized) — the serving front end
  /// reads its retry-after hint and occupancy from here.
  AdmissionController* admission() { return &admission_; }

  /// \brief Attaches a durable store rooted at `store_dir` (created if
  /// missing): recovers any existing snapshot + WAL into this provider's
  /// catalogs, then journals every subsequent successful DDL/DML statement.
  ///
  /// Call once, before serving traffic: a second call — whether or not the
  /// first succeeded against the same directory — returns kInvalidState and
  /// leaves the attached store untouched.
  Status OpenStore(const std::string& store_dir,
                   store::StoreOptions options = {})
      DMX_EXCLUDES(catalog_mu_);

  /// The attached store, or nullptr when running purely in memory. Takes the
  /// catalog lock shared for the read; the DurableStore itself is
  /// thread-safe, so the returned pointer may be used without it.
  store::DurableStore* store() DMX_EXCLUDES(catalog_mu_) {
    ReaderMutexLock lock(&catalog_mu_);
    return store_.get();
  }

  /// Forces a snapshot + WAL rotation (InvalidState without a store).
  /// Serialized against all statement execution.
  Status Checkpoint() DMX_EXCLUDES(catalog_mu_);

  /// Re-adopts a quarantined shard — by shard id ("catalog", "m000003") or
  /// by the name of a degraded model — and lifts the affected degradation.
  /// Serialized against all statement execution, like Checkpoint.
  Status Repair(const std::string& target,
                store::RepairStats* stats = nullptr) DMX_EXCLUDES(catalog_mu_);

  /// (model, reason) for every model currently degraded by a quarantined
  /// shard; empty when the store is healthy or absent.
  std::vector<std::pair<std::string, std::string>> DegradedModels() const
      DMX_EXCLUDES(catalog_mu_);

  /// True while the store's catalog shard is quarantined: every mutating
  /// statement is refused with kUnavailable; reads still serve.
  bool StoreReadOnly() const DMX_EXCLUDES(catalog_mu_) {
    ReaderMutexLock lock(&catalog_mu_);
    return store_read_only_;
  }

 private:
  friend class Connection;
  class CatalogStoreClient;

  /// Recovery-replay session: bypasses guards and admission, and instead of
  /// locking *asserts* the catalog lock (the caller — OpenStore — already
  /// holds it exclusively; re-locking would self-deadlock).
  std::unique_ptr<Connection> ConnectInternal();

  /// Journals one successfully executed statement; no-op without a store.
  /// A journal failure means the in-memory effect is NOT durable — it is
  /// surfaced to the caller, who sees the pre-statement state after reopen.
  /// The exclusive catalog lock serializes WAL appends across sessions.
  Status JournalStatementLocked(const std::string& text)
      DMX_REQUIRES(catalog_mu_);

  /// One model's degradation: its WAL shard failed recovery.
  struct DegradedState {
    std::string shard_id;
    std::string reason;
  };

  /// Rebuilds the degraded-model map and the read-only flag from the store's
  /// current quarantine set (after OpenStore and after Repair).
  void RefreshDegradedLocked() DMX_REQUIRES(catalog_mu_);

  /// kUnavailable when `name` is a degraded model, with a context frame
  /// naming the quarantined shard. Callers check this *before* resolving the
  /// name so clients see kUnavailable rather than kNotFound.
  Status CheckModelServable(const std::string& name) const
      DMX_REQUIRES_SHARED(catalog_mu_);

  /// kUnavailable for every mutating statement while the catalog shard is
  /// quarantined (the store-wide read-only degraded mode).
  Status CheckStoreWritable() const DMX_REQUIRES_SHARED(catalog_mu_);

  /// Catalog-level lock: DDL/DML and store maintenance take it exclusively,
  /// SELECT (schema rowsets included) and PREDICTION JOIN take it shared. Timed so
  /// writers blocked behind long readers can honour their deadline.
  mutable SharedMutex catalog_mu_{"provider.catalog_mu"};
  AdmissionController admission_;  // Internally synchronized.

  rel::Database database_ DMX_GUARDED_BY(catalog_mu_);
  ServiceRegistry services_ DMX_GUARDED_BY(catalog_mu_);
  ModelCatalog models_ DMX_GUARDED_BY(catalog_mu_);

  std::unique_ptr<CatalogStoreClient> store_client_
      DMX_GUARDED_BY(catalog_mu_);
  std::unique_ptr<store::DurableStore> store_ DMX_GUARDED_BY(catalog_mu_);

  /// Models whose WAL shard is quarantined: they keep their recovered base
  /// state in memory (Repair replays on top of it) but every statement that
  /// touches them returns kUnavailable.
  std::map<std::string, DegradedState> degraded_models_
      DMX_GUARDED_BY(catalog_mu_);
  bool store_read_only_ DMX_GUARDED_BY(catalog_mu_) = false;
};

/// \brief One session: the command execution surface.
class Connection {
 public:
  explicit Connection(Provider* provider) : provider_(provider) {}

  /// Executes one DMX or SQL statement. DDL/DML return an empty rowset.
  /// Thread-safe with respect to other connections on the same provider;
  /// runs under this connection's ExecLimits.
  Result<Rowset> Execute(const std::string& command);

  /// \brief Session-scoped execute: runs under `guard`, which the caller
  /// armed and keeps after the call. The serving front end uses this so
  /// one guard (deadline + cancel token) spans admission, execution *and*
  /// the response streaming that follows. `limits_` is ignored.
  Result<Rowset> ExecuteGuarded(const std::string& command, ExecGuard* guard);

  /// Execution limits armed for every subsequent Execute on this connection
  /// (deadline, cancellation token, row budgets). Default: no limits.
  void set_limits(ExecLimits limits) { limits_ = std::move(limits); }
  const ExecLimits& limits() const { return limits_; }

  /// Tenant id this session's statements are admitted under ("" = no
  /// tenant accounting). The server sets it from the session handshake.
  void set_tenant(std::string tenant) { tenant_ = std::move(tenant); }
  const std::string& tenant() const { return tenant_; }

  Provider* provider() { return provider_; }

 private:
  friend class Provider;

  Connection(Provider* provider, bool internal)
      : provider_(provider), internal_(internal) {}

  /// File payloads of one statement. Execution under the catalog lock never
  /// touches the filesystem: PrepareStatementIo reads every external input
  /// (IMPORT document, OPENROWSET caseset) *before* the lock is taken, and
  /// FinishStatementIo performs the deferred EXPORT write *after* it is
  /// released. A blocked disk therefore stalls only this statement, never
  /// every session queued behind the catalog mutex.
  struct StatementIo {
    std::optional<std::string> import_document;  ///< IMPORT: file contents.
    std::optional<Rowset> caseset_rows;  ///< OPENROWSET: loaded CSV rows.
    std::string export_path;             ///< EXPORT: destination path.
    std::string export_model;            ///< EXPORT: model name (context).
    std::optional<std::string> export_document;  ///< EXPORT: serialized.
  };

  /// Reads every external input of the statement into `io`. Lock-free: runs
  /// before admission and before any catalog lock is taken (on internal
  /// replay connections, before the caller's lock ownership is asserted).
  Status PrepareStatementIo(const DmxParseResult& parsed, StatementIo* io);

  /// Writes the deferred EXPORT document, if any. Runs after the catalog
  /// lock is released and only when execution succeeded.
  Status FinishStatementIo(StatementIo& io);

  /// Dispatches one parsed read-only statement (SELECT, PREDICTION JOIN,
  /// EXPORT) against the catalogs under at least a shared lock.
  Result<Rowset> DispatchRead(DmxParseResult& parsed, StatementIo& io)
      DMX_REQUIRES_SHARED(provider_->catalog_mu_);

  /// Dispatches one parsed mutating statement (DDL/DML/IMPORT) under the
  /// exclusive lock; journals it to the store on success.
  Result<Rowset> DispatchWrite(DmxParseResult& parsed,
                               const std::string& command, StatementIo& io)
      DMX_REQUIRES(provider_->catalog_mu_);

  /// Journals one catalog-shard statement — unless this is an internal
  /// (recovery/repair) connection: replayed statements are already durable
  /// in the shard being replayed, and re-journaling them under Repair would
  /// self-deadlock on the store's mutex.
  Status JournalLocked(const std::string& command)
      DMX_REQUIRES(provider_->catalog_mu_);

  Provider* provider_;
  ExecLimits limits_;
  std::string tenant_;
  /// Recovery-replay connection: skips guards and admission; asserts (rather
  /// than takes) the exclusive catalog lock its caller holds.
  bool internal_ = false;
};

}  // namespace dmx

#endif  // DMX_CORE_PROVIDER_H_
