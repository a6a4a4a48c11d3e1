// DurableStore: crash-safe persistence for the provider's catalogs, making
// mining models and tables genuinely first-class *database* objects (paper
// §2) — they survive process death.
//
// Layout of a store directory (sharded WAL, DESIGN.md §8):
//
//   MANIFEST                    one record: "DMXMANIFEST2" + snapshot seq +
//                               next shard number + the shard table
//                               {id, model, epoch, min_records}; atomically
//                               renamed into place — this is the commit point
//   snapshot-<seq>              full catalog image: table ('T') and model
//                               ('M') entries, terminated by an 'E' record
//   shard-catalog-<epoch>.log   catalog shard: DDL and relational-table
//                               statements journaled since snapshot <seq>
//   shard-m<num>-<epoch>.log    one shard per model: its TRAIN/INSERT
//                               statements and serialized model blobs
//   quarantine/                 shard files that failed recovery, each with a
//                               machine-readable <file>.reason JSON sidecar
//
// Every shard file starts with an 'H' header record naming its shard id,
// model, epoch and the snapshot seq it was born under; every journaled
// record is framed as 'W' + a global sequence number (gsn), so recovery can
// parse shards in parallel and then re-apply all records in their original
// total order.
//
// Recovery: read MANIFEST (missing => directory-scan fallback; present but
// undecodable => the open fails with kCorruption — recovering without the
// shard table would sweep committed rotated shards), apply the snapshot,
// then parse + deserialize all live shards on a bounded worker pool and
// replay the merged records in gsn order. A torn final record in any shard
// is truncated silently; a shard with damage earlier in the file (or one
// that fails to re-apply) is moved to quarantine/ instead of failing Open —
// the affected model degrades to kUnavailable until Repair re-adopts the
// shard's valid prefix. The store is policy-free about *what* the records
// mean — a StoreClient (the provider) applies and captures catalog state.

#ifndef DMX_STORE_STORE_H_
#define DMX_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "store/log_format.h"

namespace dmx::store {

/// Shard id of the catalog shard (DDL + relational statements).
inline constexpr char kCatalogShardId[] = "catalog";

/// One snapshot entry / decoded WAL payload.
struct StoreRecord {
  char kind = 0;      ///< 'S' statement, 'M' model blob, 'T' table, 'E' end.
  std::string name;   ///< Object name ('M'/'T').
  std::string meta;   ///< 'T': serialized schema; else empty.
  std::string data;   ///< 'S': statement text; 'M': PMML; 'T': CSV.
};

std::string EncodeStatementRecord(std::string_view text);
std::string EncodeModelRecord(std::string_view name, std::string_view pmml);
std::string EncodeTableRecord(std::string_view name, std::string_view meta,
                              std::string_view csv);
Result<StoreRecord> DecodeStoreRecord(std::string_view payload);

/// Result of deserializing a blob/table off-thread, opaque to the store.
using PreparedObject = std::shared_ptr<void>;

/// \brief Applies recovered records to, and captures snapshots from, the
/// catalog. Implemented by the provider.
class StoreClient {
 public:
  virtual ~StoreClient() = default;

  /// Re-executes one journaled DDL/DML statement.
  virtual Status ApplyStatement(const std::string& text) = 0;

  /// Serializes the whole catalog (tables then models) for a snapshot.
  virtual Result<std::vector<StoreRecord>> CaptureSnapshot() = 0;

  // --- recovery: each model blob and table snapshot is applied in two
  // steps. Prepare* deserialize the expensive part of a record and MUST be
  // safe to call from concurrent recovery worker threads (they run while
  // Open or Repair holds every relevant lock, and are joined before
  // anything is applied). ApplyPrepared* run on the recovering thread in
  // record order.

  /// Deserializes a model blob.
  virtual Result<PreparedObject> PrepareModelBlob(const std::string& pmml) = 0;
  /// Installs a model prepared by PrepareModelBlob under `name`, replacing
  /// any same-named one.
  virtual Status ApplyPreparedModel(const std::string& name,
                                    const PreparedObject& prepared) = 0;
  /// Parses a table snapshot.
  virtual Result<PreparedObject> PrepareTableSnapshot(
      const StoreRecord& record) = 0;
  /// Installs a table prepared by PrepareTableSnapshot, replacing any
  /// same-named one.
  virtual Status ApplyPreparedTable(const StoreRecord& record,
                                    const PreparedObject& prepared) = 0;
};

struct StoreOptions {
  Env* env = nullptr;  ///< nullptr: Env::Default().
  /// Checkpoint automatically once this many WAL records accumulate across
  /// all shards (0 disables auto-checkpointing).
  uint64_t auto_checkpoint_interval = 0;
  /// Worker threads for the recovery parse/deserialize phase. 0 picks the
  /// hardware concurrency (capped at 8); 1 recovers serially.
  int recovery_threads = 0;
};

struct RecoveryStats {
  uint64_t snapshot_seq = 0;
  uint64_t snapshot_entries = 0;
  uint64_t replayed_statements = 0;
  uint64_t replayed_blobs = 0;
  bool torn_tail_truncated = false;
  uint64_t shards_recovered = 0;    ///< Live shards replayed this open.
  uint64_t shards_quarantined = 0;  ///< Shards quarantined this open.
};

/// One shard's state as reported by GetStatus / the recovery report.
struct ShardStatus {
  std::string id;     ///< "catalog" or "m<num>".
  std::string model;  ///< Empty for the catalog shard.
  uint64_t epoch = 0;
  uint64_t records = 0;     ///< Journaled records (live shards only).
  bool quarantined = false;
  std::string reason;  ///< Why the shard was quarantined; empty when live.
};

struct StoreStatus {
  uint64_t snapshot_seq = 0;
  std::vector<ShardStatus> shards;  ///< Live shards, then quarantined ones.
};

struct RepairStats {
  uint64_t records_reapplied = 0;
  uint64_t records_skipped = 0;  ///< Superseded records (kAlreadyExists).
  uint64_t bytes_dropped = 0;    ///< Bytes past the valid prefix.
};

/// Thread-safety: the provider already serializes every journaling statement
/// under its exclusive catalog lock, but the store carries its own Mutex so
/// the shard/manifest invariants (writers, epochs, the gsn counter and the
/// shard table move together) are machine-checked rather than inherited by
/// convention — and so direct store users (tests, tools) get the same
/// guarantee without a provider. Recovery worker threads never touch guarded
/// state: they parse bytes handed to them and return results to the opening
/// thread.
class DurableStore {
 public:
  /// Opens (creating if needed) the store at `dir` and recovers its contents
  /// into `client`. The client must outlive the store. Shards that fail
  /// recovery are quarantined (see recovery_report()), not surfaced as
  /// errors; only snapshot/MANIFEST damage fails the open.
  static Result<std::unique_ptr<DurableStore>> Open(const std::string& dir,
                                                    StoreClient* client,
                                                    StoreOptions options = {});

  /// Appends one catalog-shard record and fsyncs it. On success the
  /// statement is durable. May trigger an auto-checkpoint (whose failure is
  /// not the statement's failure: the record is already safe, so it is
  /// swallowed and retried at the next interval).
  Status JournalStatement(const std::string& text) DMX_EXCLUDES(mu_);

  /// Appends one statement to `model`'s shard (creating the shard when the
  /// model journals for the first time).
  Status JournalModelStatement(const std::string& model,
                               const std::string& text) DMX_EXCLUDES(mu_);

  /// Journals a serialized model into `name`'s shard. A blob supersedes
  /// every earlier record of that shard, so this rotates the shard to a new
  /// epoch holding only the blob, committing via a MANIFEST rewrite.
  Status JournalModelBlob(const std::string& name, const std::string& pmml)
      DMX_EXCLUDES(mu_);

  /// Snapshots the catalog and retires every shard. Crash-safe at every
  /// step: until the MANIFEST rename commits, recovery uses the old
  /// snapshot + shards. Refused while the catalog shard is quarantined
  /// (checkpointing would silently discard its unreplayed records).
  Status Checkpoint() DMX_EXCLUDES(mu_);

  /// Re-adopts quarantined shard `shard_id`: truncates its file to the valid
  /// record prefix, re-applies those records through the client, and brings
  /// the shard back live at a bumped epoch (MANIFEST rewrite commits the
  /// adoption). Records superseded by later state (kAlreadyExists) are
  /// skipped. Must be called under the same exclusive catalog regime as
  /// Open (the provider's Repair wrapper does this).
  Status Repair(const std::string& shard_id, RepairStats* stats = nullptr)
      DMX_EXCLUDES(mu_);

  /// Stats of the Open-time recovery pass. Written once before the store is
  /// published, immutable afterwards — hence not guarded.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Per-shard outcomes of the Open-time recovery pass, including
  /// quarantines outstanding from previous sessions. Immutable after Open.
  const std::vector<ShardStatus>& recovery_report() const {
    return recovery_report_;
  }

  /// Live + quarantined shards right now.
  StoreStatus GetStatus() const DMX_EXCLUDES(mu_);

  /// True while the catalog shard is quarantined: journaled writes are
  /// refused with kUnavailable until Repair re-adopts it.
  bool catalog_quarantined() const DMX_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return quarantined_.count(kCatalogShardId) > 0;
  }

  uint64_t snapshot_seq() const DMX_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return seq_;
  }
  /// Records across all live shards (recovered + newly journaled).
  uint64_t wal_records() const DMX_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return total_records_;
  }
  const std::string& dir() const { return dir_; }

 private:
  /// One live shard: its identity, current epoch and (lazy) writer.
  struct Shard {
    std::string id;
    std::string model;  ///< Empty for the catalog shard.
    uint64_t epoch = 1;
    uint64_t born_snapshot = 0;  ///< Snapshot seq current at creation.
    uint64_t records = 0;        ///< Journaled records (header excluded).
    std::unique_ptr<RecordWriter> writer;
  };

  /// A quarantined shard awaiting Repair.
  struct QuarantineEntry {
    std::string id;
    std::string model;
    uint64_t epoch = 0;
    std::string file;    ///< Original file name (also the quarantine name).
    std::string reason;  ///< Human-readable failure description.
    /// Set when this session already applied a prefix of the shard (a
    /// mid-replay failure): Repair would double-apply, so it is refused
    /// until the store is reopened.
    bool partial_this_session = false;
  };

  DurableStore(std::string dir, StoreClient* client, StoreOptions options);

  Status Recover() DMX_REQUIRES(mu_);
  void LoadOutstandingQuarantines() DMX_REQUIRES(mu_);

  /// Moves `file` (when present) into quarantine/ and writes its .reason
  /// sidecar; registers the entry. Best-effort on the file operations — the
  /// entry is registered (and the shard kept out of the live set) even when
  /// the move fails.
  void QuarantineShard(QuarantineEntry entry, uint64_t valid_bytes,
                       uint64_t valid_records) DMX_REQUIRES(mu_);

  Status Append(Shard* shard, std::string inner_payload) DMX_REQUIRES(mu_);
  Status EnsureShardWriter(Shard* shard) DMX_REQUIRES(mu_);
  /// Returns the live shard for `model`, creating one on first use.
  Result<Shard*> ResolveModelShard(const std::string& model)
      DMX_REQUIRES(mu_);
  /// Refuses journaling into quarantined territory with kUnavailable.
  Status CheckWritable(const std::string& shard_id) DMX_REQUIRES(mu_);

  /// Checkpoint body; split out so Append's auto-checkpoint can run without
  /// re-locking.
  Status CheckpointLocked() DMX_REQUIRES(mu_);
  /// Writes MANIFEST listing every live shard at its current epoch/records.
  Status WriteManifestLocked() DMX_REQUIRES(mu_);

  std::string SnapshotPath(uint64_t seq) const;
  std::string ShardFileName(const std::string& id, uint64_t epoch) const;
  std::string ShardPath(const std::string& id, uint64_t epoch) const;
  std::string ManifestPath() const;
  std::string QuarantineDir() const;
  /// Best-effort removal of *.tmp and files from retired shard epochs /
  /// snapshot seqs. Namespace-aware: only names matching the store's own
  /// patterns are ever deleted; quarantine/ and foreign files are untouched.
  void CleanStaleFiles() DMX_REQUIRES(mu_);

  const std::string dir_;
  StoreClient* const client_;
  const StoreOptions options_;
  Env* const env_;

  /// Serializes shard appends, rotation and the manifest.
  mutable Mutex mu_{"store.mu"};
  uint64_t seq_ DMX_GUARDED_BY(mu_) = 0;
  uint64_t next_shard_num_ DMX_GUARDED_BY(mu_) = 0;
  uint64_t next_gsn_ DMX_GUARDED_BY(mu_) = 1;
  uint64_t total_records_ DMX_GUARDED_BY(mu_) = 0;
  /// Live shards by id.
  std::map<std::string, Shard> shards_ DMX_GUARDED_BY(mu_);
  /// Model name -> live shard id.
  std::map<std::string, std::string> model_shard_ DMX_GUARDED_BY(mu_);
  /// Quarantined shards by id.
  std::map<std::string, QuarantineEntry> quarantined_ DMX_GUARDED_BY(mu_);

  RecoveryStats recovery_stats_;
  std::vector<ShardStatus> recovery_report_;
};

}  // namespace dmx::store

#endif  // DMX_STORE_STORE_H_
