#include "store/store.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <tuple>
#include <thread>

namespace dmx::store {

namespace {

constexpr char kManifestMagic2[] = "DMXMANIFEST2";

std::string FormatSeq(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06" PRIu64, seq);
  return buf;
}

/// "snapshot-000123" -> 123; nullopt-style false for non-matching names.
bool ParseSeqSuffix(const std::string& name, const std::string& prefix,
                    const std::string& suffix, uint64_t* seq) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  char* end = nullptr;
  *seq = std::strtoull(digits.c_str(), &end, 10);
  return end == digits.c_str() + digits.size();
}

/// "shard-<id>-<epoch>.log" -> (id, epoch). The id itself never contains the
/// trailing "-<epoch>" ambiguity: the epoch is the final dash-separated run
/// of digits.
bool ParseShardFileName(const std::string& name, std::string* id,
                        uint64_t* epoch) {
  constexpr char kPrefix[] = "shard-";
  constexpr char kSuffix[] = ".log";
  size_t prefix_len = sizeof(kPrefix) - 1;
  size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return false;
  }
  std::string middle =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  size_t dash = middle.find_last_of('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= middle.size()) {
    return false;
  }
  std::string digits = middle.substr(dash + 1);
  char* end = nullptr;
  *epoch = std::strtoull(digits.c_str(), &end, 10);
  if (end != digits.c_str() + digits.size()) return false;
  *id = middle.substr(0, dash);
  return !id->empty();
}

/// "m000017" -> 17 for model shard ids; false for "catalog" / foreign ids.
bool ParseShardNum(const std::string& id, uint64_t* num) {
  if (id.size() < 2 || id[0] != 'm') return false;
  char* end = nullptr;
  *num = std::strtoull(id.c_str() + 1, &end, 10);
  return end == id.c_str() + id.size();
}

std::string ModelShardId(uint64_t num) { return "m" + FormatSeq(num); }

// --- shard header ('H') and journal ('W') payloads -----------------------

std::string EncodeShardHeader(const std::string& id, const std::string& model,
                              uint64_t epoch, uint64_t born_snapshot) {
  std::string out(1, 'H');
  PutLengthPrefixed(&out, id);
  PutLengthPrefixed(&out, model);
  PutFixed64(&out, epoch);
  PutFixed64(&out, born_snapshot);
  return out;
}

struct ShardHeader {
  std::string id;
  std::string model;
  uint64_t epoch = 0;
  uint64_t born_snapshot = 0;
};

bool DecodeShardHeader(std::string_view payload, ShardHeader* out) {
  if (payload.empty() || payload[0] != 'H') return false;
  std::string_view rest = payload.substr(1);
  std::string_view id;
  std::string_view model;
  if (!GetLengthPrefixed(&rest, &id) || !GetLengthPrefixed(&rest, &model) ||
      !GetFixed64(&rest, &out->epoch) ||
      !GetFixed64(&rest, &out->born_snapshot)) {
    return false;
  }
  out->id.assign(id.data(), id.size());
  out->model.assign(model.data(), model.size());
  return true;
}

std::string EncodeJournalPayload(uint64_t gsn, std::string_view inner) {
  std::string out(1, 'W');
  PutFixed64(&out, gsn);
  out.append(inner.data(), inner.size());
  return out;
}

bool DecodeJournalPayload(std::string_view payload, uint64_t* gsn,
                          std::string_view* inner) {
  if (payload.empty() || payload[0] != 'W') return false;
  std::string_view rest = payload.substr(1);
  if (!GetFixed64(&rest, gsn)) return false;
  *inner = rest;
  return true;
}

// --- MANIFEST v2 ----------------------------------------------------------

struct ManifestShard {
  std::string id;
  std::string model;
  uint64_t epoch = 0;
  /// Records known journaled at manifest-write time: a floor used to tell a
  /// legitimately-empty shard from a vanished file.
  uint64_t min_records = 0;
};

struct ManifestData {
  uint64_t seq = 0;
  uint64_t next_shard_num = 0;
  std::vector<ManifestShard> shards;
};

std::string EncodeManifestPayload(const ManifestData& m) {
  std::string out = kManifestMagic2;
  PutFixed64(&out, m.seq);
  PutFixed64(&out, m.next_shard_num);
  PutFixed32(&out, static_cast<uint32_t>(m.shards.size()));
  for (const ManifestShard& shard : m.shards) {
    PutLengthPrefixed(&out, shard.id);
    PutLengthPrefixed(&out, shard.model);
    PutFixed64(&out, shard.epoch);
    PutFixed64(&out, shard.min_records);
  }
  return out;
}

bool DecodeManifestPayload(std::string_view payload, ManifestData* out) {
  constexpr size_t kMagicLen = sizeof(kManifestMagic2) - 1;
  if (payload.size() < kMagicLen ||
      payload.compare(0, kMagicLen, kManifestMagic2) != 0) {
    return false;
  }
  std::string_view rest = payload.substr(kMagicLen);
  uint32_t count = 0;
  if (!GetFixed64(&rest, &out->seq) ||
      !GetFixed64(&rest, &out->next_shard_num) || !GetFixed32(&rest, &count)) {
    return false;
  }
  out->shards.clear();
  for (uint32_t i = 0; i < count; ++i) {
    ManifestShard shard;
    std::string_view id;
    std::string_view model;
    if (!GetLengthPrefixed(&rest, &id) || !GetLengthPrefixed(&rest, &model) ||
        !GetFixed64(&rest, &shard.epoch) ||
        !GetFixed64(&rest, &shard.min_records)) {
      return false;
    }
    shard.id.assign(id.data(), id.size());
    shard.model.assign(model.data(), model.size());
    out->shards.push_back(std::move(shard));
  }
  return true;
}

// --- quarantine reason files (minimal JSON) -------------------------------

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
  }
  return out;
}

std::string JsonUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        out += s[i];
    }
  }
  return out;
}

bool ExtractJsonString(const std::string& body, const std::string& key,
                       std::string* out) {
  std::string needle = "\"" + key + "\":\"";
  size_t start = body.find(needle);
  if (start == std::string::npos) return false;
  start += needle.size();
  size_t end = start;
  while (end < body.size()) {
    if (body[end] == '\\') {
      end += 2;
      continue;
    }
    if (body[end] == '"') break;
    ++end;
  }
  if (end >= body.size()) return false;
  *out = JsonUnescape(std::string_view(body).substr(start, end - start));
  return true;
}

bool ExtractJsonUint(const std::string& body, const std::string& key,
                     uint64_t* out) {
  std::string needle = "\"" + key + "\":";
  size_t start = body.find(needle);
  if (start == std::string::npos) return false;
  start += needle.size();
  char* end = nullptr;
  *out = std::strtoull(body.c_str() + start, &end, 10);
  return end != body.c_str() + start;
}

// --- recovery worker pool -------------------------------------------------

/// Runs fn(0..n-1) on up to `threads` workers. Workers claim indices from an
/// atomic counter; they touch only their own task's state, so no locks are
/// needed (and none may be taken: these threads run inside Open's critical
/// section).
void RunParallel(int threads, size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  int workers = std::min<int>(threads, static_cast<int>(n));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) - 1);
  for (int t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

int ResolveRecoveryThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  return static_cast<int>(std::min(hw, 8u));
}

/// One decoded journal record, tagged with its shard for the gsn merge.
struct ScannedRecord {
  uint64_t gsn = 0;
  StoreRecord record;
  PreparedObject prepared;  ///< For 'M' records prepared off-thread.
};

/// Worker-side scan of one candidate shard file.
struct ShardScan {
  // Inputs.
  std::string id;
  std::string model;  ///< From the manifest; workers fill it from the header
                      ///< for unknown shards.
  uint64_t epoch = 0;
  std::string path;
  std::string file_name;
  bool known = false;        ///< Listed in the manifest.
  uint64_t min_records = 0;  ///< Manifest floor: acked records at commit.
  // Outputs.
  Status failure;  ///< Non-OK: shard must be quarantined.
  bool header_valid = false;
  uint64_t born_snapshot = 0;
  bool torn = false;
  uint64_t valid_bytes = 0;
  std::vector<ScannedRecord> records;
};

}  // namespace

std::string EncodeStatementRecord(std::string_view text) {
  std::string out(1, 'S');
  out.append(text.data(), text.size());
  return out;
}

std::string EncodeModelRecord(std::string_view name, std::string_view pmml) {
  std::string out(1, 'M');
  PutLengthPrefixed(&out, name);
  out.append(pmml.data(), pmml.size());
  return out;
}

std::string EncodeTableRecord(std::string_view name, std::string_view meta,
                              std::string_view csv) {
  std::string out(1, 'T');
  PutLengthPrefixed(&out, name);
  PutLengthPrefixed(&out, meta);
  out.append(csv.data(), csv.size());
  return out;
}

Result<StoreRecord> DecodeStoreRecord(std::string_view payload) {
  if (payload.empty()) return Corruption() << "empty store record";
  StoreRecord record;
  record.kind = payload[0];
  std::string_view rest = payload.substr(1);
  switch (record.kind) {
    case 'S':
      record.data.assign(rest.data(), rest.size());
      return record;
    case 'E':
      return record;
    case 'M': {
      std::string_view name;
      if (!GetLengthPrefixed(&rest, &name)) {
        return Corruption() << "model record with malformed name";
      }
      record.name.assign(name.data(), name.size());
      record.data.assign(rest.data(), rest.size());
      return record;
    }
    case 'T': {
      std::string_view name;
      std::string_view meta;
      if (!GetLengthPrefixed(&rest, &name) ||
          !GetLengthPrefixed(&rest, &meta)) {
        return Corruption() << "table record with malformed header";
      }
      record.name.assign(name.data(), name.size());
      record.meta.assign(meta.data(), meta.size());
      record.data.assign(rest.data(), rest.size());
      return record;
    }
    default:
      return Corruption() << "unknown store record kind '" << record.kind
                          << "'";
  }
}

DurableStore::DurableStore(std::string dir, StoreClient* client,
                           StoreOptions options)
    : dir_(std::move(dir)),
      client_(client),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

std::string DurableStore::SnapshotPath(uint64_t seq) const {
  return dir_ + "/snapshot-" + FormatSeq(seq);
}

std::string DurableStore::ShardFileName(const std::string& id,
                                        uint64_t epoch) const {
  return "shard-" + id + "-" + FormatSeq(epoch) + ".log";
}

std::string DurableStore::ShardPath(const std::string& id,
                                    uint64_t epoch) const {
  return dir_ + "/" + ShardFileName(id, epoch);
}

std::string DurableStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

std::string DurableStore::QuarantineDir() const {
  return dir_ + "/quarantine";
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, StoreClient* client, StoreOptions options) {
  std::unique_ptr<DurableStore> store(new DurableStore(dir, client, options));
  Status status;
  {
    // The store is not published yet, so there is no contention — the lock
    // is taken purely to satisfy Recover's REQUIRES(mu_) contract.
    MutexLock lock(&store->mu_);
    status = store->Recover();
  }
  if (!status.ok()) {
    return status.WithContext("opening store '" + dir + "'");
  }
  return store;
}

Status DurableStore::Recover() {
  DMX_RETURN_IF_ERROR(env_->CreateDir(dir_));
  const int threads = ResolveRecoveryThreads(options_.recovery_threads);

  // 1. Resolve the manifest: snapshot seq, shard-number floor, shard table.
  // A MANIFEST that exists but does not decode must fail the open, never
  // downgrade to the directory-scan fallback: without the shard table every
  // committed shard at epoch >= 2 would classify as stale and be swept —
  // silent loss of acknowledged data. The crash model cannot produce this
  // state (AtomicWriteFile leaves the previous MANIFEST intact until the
  // rename), so reaching it means fs-level damage or a foreign format.
  ManifestData manifest;
  bool have_manifest = false;
  if (env_->FileExists(ManifestPath())) {
    DMX_ASSIGN_OR_RETURN(ReadLogResult raw,
                         ReadLogFile(env_, ManifestPath()));
    if (raw.records.size() != 1 ||
        !DecodeManifestPayload(raw.records[0], &manifest)) {
      return Corruption() << "MANIFEST exists but is undecodable ("
                          << raw.records.size() << " records"
                          << (raw.torn_tail ? ", torn tail" : "")
                          << "); refusing to recover without the shard table";
    }
    have_manifest = true;
    seq_ = manifest.seq;
    next_shard_num_ = manifest.next_shard_num;
  }
  if (!have_manifest) {
    // Fallback (MANIFEST genuinely absent — a pre-first-commit store): the
    // newest snapshot on disk (rename is atomic, so a present snapshot is
    // whole — its 'E' terminator is verified below anyway).
    DMX_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
    for (const std::string& name : names) {
      uint64_t seq = 0;
      if (ParseSeqSuffix(name, "snapshot-", "", &seq) && seq > seq_) {
        seq_ = seq;
      }
    }
  }

  // 2. Apply the snapshot. Expensive entries (model blobs, table CSV) are
  // deserialized on the worker pool, then applied in capture order. Snapshot
  // damage is NOT quarantinable — it is the base every shard builds on — so
  // it still fails the open with kCorruption.
  if (seq_ > 0) {
    Result<ReadLogResult> snapshot = ReadLogFile(env_, SnapshotPath(seq_));
    if (!snapshot.ok()) {
      return snapshot.status().WithContext("reading snapshot '" +
                                           SnapshotPath(seq_) + "'");
    }
    bool terminated = !snapshot->records.empty() && !snapshot->torn_tail &&
                      snapshot->records.back() == "E";
    if (!terminated) {
      return Corruption() << "snapshot '" << SnapshotPath(seq_)
                          << "' is incomplete (missing end record)";
    }
    std::vector<StoreRecord> entries;
    entries.reserve(snapshot->records.size());
    for (const std::string& payload : snapshot->records) {
      DMX_ASSIGN_OR_RETURN(StoreRecord record, DecodeStoreRecord(payload));
      if (record.kind == 'E') continue;
      if (record.kind != 'T' && record.kind != 'M') {
        return Corruption() << "record kind '" << record.kind
                            << "' is invalid inside a snapshot";
      }
      entries.push_back(std::move(record));
    }
    std::vector<Result<PreparedObject>> prepared(entries.size(),
                                                 PreparedObject());
    RunParallel(threads, entries.size(), [&](size_t i) {
      prepared[i] = entries[i].kind == 'M'
                        ? client_->PrepareModelBlob(entries[i].data)
                        : client_->PrepareTableSnapshot(entries[i]);
    });
    for (size_t i = 0; i < entries.size(); ++i) {
      const StoreRecord& record = entries[i];
      if (!prepared[i].ok()) {
        return prepared[i].status().WithContext("restoring '" + record.name +
                                                "' from snapshot");
      }
      Status applied =
          record.kind == 'M'
              ? client_->ApplyPreparedModel(record.name, prepared[i].value())
              : client_->ApplyPreparedTable(record, prepared[i].value());
      DMX_RETURN_IF_ERROR(applied.WithContext(
          std::string("restoring ") +
          (record.kind == 'M' ? "model '" : "table '") + record.name + "'"));
      ++recovery_stats_.snapshot_entries;
    }
  }
  recovery_stats_.snapshot_seq = seq_;

  // 3. Discover candidate shard files and decide which are scannable:
  // manifest-known shards at exactly their manifest epoch; unknown shards at
  // epoch 1 (anything else is an uncommitted rotation or a retired epoch —
  // stale, swept below).
  DMX_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  std::map<std::string, std::vector<uint64_t>> candidates;
  for (const std::string& name : names) {
    std::string id;
    uint64_t epoch = 0;
    if (ParseShardFileName(name, &id, &epoch)) {
      candidates[id].push_back(epoch);
      uint64_t num = 0;
      if (ParseShardNum(id, &num) && num + 1 > next_shard_num_) {
        next_shard_num_ = num + 1;  // ids are never reused, even stale ones
      }
    }
  }

  std::vector<ShardScan> scans;
  std::map<std::string, const ManifestShard*> manifest_by_id;
  for (const ManifestShard& entry : manifest.shards) {
    manifest_by_id[entry.id] = &entry;
    auto it = candidates.find(entry.id);
    bool file_present =
        it != candidates.end() &&
        std::find(it->second.begin(), it->second.end(), entry.epoch) !=
            it->second.end();
    if (file_present) {
      ShardScan scan;
      scan.id = entry.id;
      scan.model = entry.model;
      scan.epoch = entry.epoch;
      scan.known = true;
      scan.min_records = entry.min_records;
      scan.file_name = ShardFileName(entry.id, entry.epoch);
      scan.path = ShardPath(entry.id, entry.epoch);
      scans.push_back(std::move(scan));
    } else if (entry.min_records > 0) {
      // The manifest promised journaled records; the file is gone. That is
      // real data loss, not a legitimately-empty shard.
      QuarantineEntry q;
      q.id = entry.id;
      q.model = entry.model;
      q.epoch = entry.epoch;
      q.file = ShardFileName(entry.id, entry.epoch);
      q.reason = "Not found: shard file '" + q.file + "' is missing (" +
                 std::to_string(entry.min_records) +
                 " journaled records lost)";
      QuarantineShard(std::move(q), 0, 0);
    } else {
      // Known but legitimately empty: bring it back live without a file.
      Shard shard;
      shard.id = entry.id;
      shard.model = entry.model;
      shard.epoch = entry.epoch;
      shard.born_snapshot = seq_;
      shards_[entry.id] = std::move(shard);
    }
  }
  for (const auto& [id, epochs] : candidates) {
    if (manifest_by_id.count(id) > 0) continue;
    if (std::find(epochs.begin(), epochs.end(), uint64_t{1}) ==
        epochs.end()) {
      continue;  // no epoch-1 file: every epoch is uncommitted — stale
    }
    ShardScan scan;
    scan.id = id;
    scan.epoch = 1;
    scan.known = false;
    scan.file_name = ShardFileName(id, 1);
    scan.path = ShardPath(id, 1);
    scans.push_back(std::move(scan));
  }

  // 4. Parse + deserialize every scannable shard on the worker pool. Workers
  // only read files and fill their own ShardScan; all verdicts, truncations
  // and applies happen on this thread after the join.
  RunParallel(threads, scans.size(), [&](size_t i) {
    ShardScan& scan = scans[i];
    Result<std::string> data = env_->ReadFileToString(scan.path);
    if (!data.ok()) {
      scan.failure = data.status();
      return;
    }
    ParsedPrefix parsed = ParseLogPrefix(*data);
    scan.torn = parsed.log.torn_tail;
    scan.valid_bytes = parsed.log.valid_bytes;
    for (size_t r = 0; r < parsed.log.records.size(); ++r) {
      const std::string& payload = parsed.log.records[r];
      if (r == 0) {
        ShardHeader header;
        if (!DecodeShardHeader(payload, &header)) {
          // An unreadable header on a manifest-known shard is damage; on an
          // unknown shard it means the creating append never acked, so the
          // main thread treats the file as stale.
          if (scan.known) {
            scan.failure = Corruption() << "shard header is unreadable";
          }
          return;
        }
        if (header.id != scan.id || header.epoch != scan.epoch) {
          scan.failure = Corruption()
                         << "shard header names '" << header.id << "' epoch "
                         << header.epoch << ", expected '" << scan.id
                         << "' epoch " << scan.epoch;
          return;
        }
        scan.header_valid = true;
        scan.born_snapshot = header.born_snapshot;
        if (!scan.known) scan.model = header.model;
        continue;
      }
      uint64_t gsn = 0;
      std::string_view inner;
      if (!DecodeJournalPayload(payload, &gsn, &inner)) {
        scan.failure = Corruption()
                       << "journal record " << r << " is not framed as 'W'";
        return;
      }
      Result<StoreRecord> decoded = DecodeStoreRecord(inner);
      if (!decoded.ok()) {
        scan.failure = decoded.status();
        return;
      }
      if (decoded->kind != 'S' && decoded->kind != 'M') {
        scan.failure = Corruption() << "record kind '" << decoded->kind
                                    << "' is invalid inside a shard";
        return;
      }
      ScannedRecord rec;
      rec.gsn = gsn;
      rec.record = std::move(*decoded);
      if (rec.record.kind == 'M') {
        Result<PreparedObject> prep =
            client_->PrepareModelBlob(rec.record.data);
        if (!prep.ok()) {
          scan.failure =
              prep.status().WithContext("deserializing journaled model '" +
                                        rec.record.name + "'");
          return;
        }
        rec.prepared = std::move(prep).value();
      }
      scan.records.push_back(std::move(rec));
    }
    // Mid-log damage still fails the shard — but the valid prefix was
    // decoded first regardless: it names the owning model (the header) even
    // on a manifest-unknown shard, so the quarantine can degrade that model.
    if (scan.failure.ok() && !parsed.damage.ok()) {
      scan.failure = parsed.damage;
    }
  });

  // 5. Triage the scans: quarantine the damaged, truncate torn tails, drop
  // stale unknowns, keep the rest for the merge.
  std::vector<ShardScan*> live;
  for (ShardScan& scan : scans) {
    if (!scan.known) {
      bool stale = !scan.header_valid && scan.failure.ok();
      if (scan.header_valid && scan.born_snapshot != seq_) stale = true;
      if (stale) continue;  // left to the namespace-aware sweep
      if (scan.failure.ok() && !scan.model.empty() &&
          model_shard_.count(scan.model) > 0) {
        continue;  // duplicate claim on a model; the known shard wins
      }
    }
    if (scan.failure.ok() && scan.known &&
        scan.records.size() < scan.min_records) {
      // The file parses cleanly but holds fewer records than the manifest
      // committed (fs rollback, lost writes): acknowledged records are gone.
      // Checked before the torn-tail truncation so the file is quarantined
      // whole. Every append is fsynced before it acks, so a legitimate torn
      // tail can only be the one record past the manifest floor.
      scan.failure = Corruption()
                     << "shard replays " << scan.records.size()
                     << " records but the manifest promises "
                     << scan.min_records << " — acknowledged records lost";
    }
    if (scan.failure.ok() && scan.torn) {
      Status truncated = env_->TruncateFile(scan.path, scan.valid_bytes);
      if (!truncated.ok()) {
        scan.failure =
            truncated.WithContext("truncating torn tail of '" + scan.path +
                                  "'");
      } else {
        recovery_stats_.torn_tail_truncated = true;
      }
    }
    if (!scan.failure.ok()) {
      QuarantineEntry q;
      q.id = scan.id;
      q.model = scan.model;
      q.epoch = scan.epoch;
      q.file = scan.file_name;
      q.reason = scan.failure.ToString();
      QuarantineShard(std::move(q), scan.valid_bytes, scan.records.size());
      continue;
    }
    if (!scan.model.empty()) model_shard_[scan.model] = scan.id;
    live.push_back(&scan);
  }

  // 6. Merge every surviving record back into the original execution order
  // (the gsn total order) and re-apply. A record that fails to apply
  // quarantines its shard and skips the shard's remaining records; the other
  // shards keep replaying.
  struct MergeRef {
    uint64_t gsn;
    size_t shard;
    size_t index;
  };
  std::vector<MergeRef> merged;
  for (size_t s = 0; s < live.size(); ++s) {
    for (size_t r = 0; r < live[s]->records.size(); ++r) {
      merged.push_back({live[s]->records[r].gsn, s, r});
    }
  }
  // Gsns are unique (consumed even by failed appends), so the tie-break on
  // (shard, index) is pure defense: replay order stays deterministic even
  // against a log that somehow carries duplicates.
  std::sort(merged.begin(), merged.end(),
            [](const MergeRef& a, const MergeRef& b) {
              return std::tie(a.gsn, a.shard, a.index) <
                     std::tie(b.gsn, b.shard, b.index);
            });
  std::vector<bool> dead(live.size(), false);
  std::vector<uint64_t> applied(live.size(), 0);
  for (const MergeRef& ref : merged) {
    if (dead[ref.shard]) continue;
    ShardScan& scan = *live[ref.shard];
    ScannedRecord& rec = scan.records[ref.index];
    Status status =
        rec.record.kind == 'S'
            ? client_->ApplyStatement(rec.record.data)
                  .WithContext("replaying journaled statement")
            : client_
                  ->ApplyPreparedModel(rec.record.name, rec.prepared)
                  .WithContext("replaying journaled model '" +
                               rec.record.name + "'");
    if (!status.ok()) {
      dead[ref.shard] = true;
      if (!scan.model.empty()) model_shard_.erase(scan.model);
      QuarantineEntry q;
      q.id = scan.id;
      q.model = scan.model;
      q.epoch = scan.epoch;
      q.file = scan.file_name;
      q.reason = status.ToString();
      q.partial_this_session = applied[ref.shard] > 0;
      QuarantineShard(std::move(q), scan.valid_bytes, scan.records.size());
      continue;
    }
    ++applied[ref.shard];
    if (rec.record.kind == 'S') {
      ++recovery_stats_.replayed_statements;
    } else {
      ++recovery_stats_.replayed_blobs;
    }
    if (rec.gsn >= next_gsn_) next_gsn_ = rec.gsn + 1;
  }

  // 7. Register the survivors as live shards.
  for (size_t s = 0; s < live.size(); ++s) {
    if (dead[s]) continue;
    const ShardScan& scan = *live[s];
    Shard shard;
    shard.id = scan.id;
    shard.model = scan.model;
    shard.epoch = scan.epoch;
    shard.born_snapshot = scan.header_valid ? scan.born_snapshot : seq_;
    shard.records = scan.records.size();
    total_records_ += shard.records;
    shards_[scan.id] = std::move(shard);
    ++recovery_stats_.shards_recovered;
  }

  LoadOutstandingQuarantines();

  // 8. Publish the per-shard report: live shards first, then quarantined.
  for (const auto& [id, shard] : shards_) {
    ShardStatus row;
    row.id = id;
    row.model = shard.model;
    row.epoch = shard.epoch;
    row.records = shard.records;
    recovery_report_.push_back(std::move(row));
  }
  for (const auto& [id, entry] : quarantined_) {
    ShardStatus row;
    row.id = id;
    row.model = entry.model;
    row.epoch = entry.epoch;
    row.quarantined = true;
    row.reason = entry.reason;
    recovery_report_.push_back(std::move(row));
  }

  CleanStaleFiles();
  return Status::OK();
}

void DurableStore::QuarantineShard(QuarantineEntry entry, uint64_t valid_bytes,
                                   uint64_t valid_records) {
  (void)env_->CreateDir(QuarantineDir());
  const std::string src = dir_ + "/" + entry.file;
  const std::string dst = QuarantineDir() + "/" + entry.file;
  if (env_->FileExists(src)) {
    (void)env_->RenameFile(src, dst);
    (void)env_->SyncDir(dir_);
  }
  // Machine-readable sidecar; best-effort (the in-memory entry is
  // authoritative for this session, and a reason-less quarantined file is
  // still resurfaced at the next open).
  std::string code = entry.reason.substr(0, entry.reason.find(':'));
  std::string reason_json =
      "{\"shard\":\"" + JsonEscape(entry.id) + "\",\"model\":\"" +
      JsonEscape(entry.model) + "\",\"epoch\":" + std::to_string(entry.epoch) +
      ",\"file\":\"" + JsonEscape(entry.file) + "\",\"code\":\"" +
      JsonEscape(code) + "\",\"detail\":\"" + JsonEscape(entry.reason) +
      "\",\"valid_bytes\":" + std::to_string(valid_bytes) +
      ",\"valid_records\":" + std::to_string(valid_records) + "}\n";
  (void)env_->WriteStringToFile(dst + ".reason", reason_json);
  ++recovery_stats_.shards_quarantined;
  quarantined_[entry.id] = std::move(entry);
}

void DurableStore::LoadOutstandingQuarantines() {
  if (!env_->FileExists(QuarantineDir())) return;
  Result<std::vector<std::string>> names = env_->ListDir(QuarantineDir());
  if (!names.ok()) return;
  // Sidecars first — directory order is arbitrary, and a bare shard file
  // must not register a reason-less (and model-less) entry that shadows its
  // own sidecar.
  constexpr char kReasonSuffix[] = ".reason";
  constexpr size_t kSuffixLen = sizeof(kReasonSuffix) - 1;
  auto is_sidecar = [&](const std::string& name) {
    return name.size() > kSuffixLen &&
           name.compare(name.size() - kSuffixLen, kSuffixLen,
                        kReasonSuffix) == 0;
  };
  std::sort(names->begin(), names->end(),
            [&](const std::string& a, const std::string& b) {
              return is_sidecar(a) > is_sidecar(b);
            });
  std::set<std::string> seen_files;
  for (const std::string& name : *names) {
    std::string file;
    QuarantineEntry entry;
    if (is_sidecar(name)) {
      file = name.substr(0, name.size() - kSuffixLen);
      Result<std::string> body =
          env_->ReadFileToString(QuarantineDir() + "/" + name);
      if (body.ok()) {
        (void)ExtractJsonString(*body, "shard", &entry.id);
        (void)ExtractJsonString(*body, "model", &entry.model);
        (void)ExtractJsonUint(*body, "epoch", &entry.epoch);
        (void)ExtractJsonString(*body, "detail", &entry.reason);
      }
    } else {
      // A quarantined shard whose reason sidecar never made it to disk.
      if (seen_files.count(name) > 0) continue;
      file = name;
    }
    if (!seen_files.insert(file).second) continue;
    if (entry.id.empty()) {
      uint64_t epoch = 0;
      std::string id;
      if (!ParseShardFileName(file, &id, &epoch)) continue;
      entry.id = id;
      entry.epoch = epoch;
      if (entry.reason.empty()) {
        entry.reason = "quarantined (reason file missing)";
      }
    }
    entry.file = file;
    if (quarantined_.count(entry.id) > 0 || shards_.count(entry.id) > 0) {
      continue;  // already quarantined this open, or repaired concurrently
    }
    if (entry.model.empty() && entry.id != kCatalogShardId) {
      // Sidecar missing or incomplete: the shard file's own 'H' header still
      // names the owning model. Without the attribution, ResolveModelShard
      // could hand that model a fresh shard and fork its history (a later
      // Repair would replay stale records over the new lineage).
      Result<std::string> data =
          env_->ReadFileToString(QuarantineDir() + "/" + file);
      if (data.ok()) {
        ParsedPrefix parsed = ParseLogPrefix(*data);
        ShardHeader header;
        if (!parsed.log.records.empty() &&
            DecodeShardHeader(parsed.log.records[0], &header)) {
          entry.model = header.model;
        }
      }
    }
    uint64_t num = 0;
    if (ParseShardNum(entry.id, &num) && num + 1 > next_shard_num_) {
      next_shard_num_ = num + 1;
    }
    quarantined_[entry.id] = std::move(entry);
  }
}

void DurableStore::CleanStaleFiles() {
  Result<std::vector<std::string>> names = env_->ListDir(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    std::string id;
    bool stale = false;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale = true;
    } else if (ParseSeqSuffix(name, "snapshot-", "", &seq)) {
      stale = seq != seq_;
    } else if (ParseShardFileName(name, &id, &seq)) {
      // Only the store's own shard namespace is sweepable, and never a
      // quarantined id (its file may still be here if the move failed).
      auto it = shards_.find(id);
      bool is_live = it != shards_.end() && it->second.epoch == seq;
      stale = !is_live && quarantined_.count(id) == 0;
    }
    // Anything else — quarantine/, user files, unrecognized names — is not
    // ours to delete.
    if (stale) (void)env_->DeleteFile(dir_ + "/" + name);
  }
}

Status DurableStore::CheckWritable(const std::string& shard_id) {
  auto catalog = quarantined_.find(kCatalogShardId);
  if (catalog != quarantined_.end()) {
    return Unavailable()
           << "store is read-only: catalog shard quarantined ("
           << catalog->second.reason << "); run Repair to restore it";
  }
  auto it = quarantined_.find(shard_id);
  if (it != quarantined_.end()) {
    Status status = Unavailable() << "shard '" << shard_id
                                  << "' is quarantined (" << it->second.reason
                                  << ")";
    return status.WithContext("quarantined shard '" + it->second.file + "'");
  }
  return Status::OK();
}

Status DurableStore::EnsureShardWriter(Shard* shard) {
  if (shard->writer != nullptr) return Status::OK();
  const std::string path = ShardPath(shard->id, shard->epoch);
  const bool created = !env_->FileExists(path);
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       env_->NewWritableFile(path, /*append=*/true));
  auto writer = std::make_unique<RecordWriter>(std::move(file));
  if (created) {
    // A freshly created shard's directory entry must be durable before
    // records are fsynced into it — otherwise a crash can lose the whole
    // file even though every append reported success. The header itself is
    // made durable by the first record's Sync.
    DMX_RETURN_IF_ERROR(writer->Append(EncodeShardHeader(
        shard->id, shard->model, shard->epoch, shard->born_snapshot)));
    DMX_RETURN_IF_ERROR(env_->SyncDir(dir_));
  }
  shard->writer = std::move(writer);
  return Status::OK();
}

Status DurableStore::Append(Shard* shard, std::string inner_payload) {
  DMX_RETURN_IF_ERROR(EnsureShardWriter(shard));
  // The gsn is consumed even when the append fails: the write can land and
  // only the fsync report the error, leaving a durable record that carries
  // this gsn. Reusing it for the next statement would put two records at
  // the same position in the recovery merge, making replay order arbitrary.
  uint64_t gsn = next_gsn_++;
  DMX_RETURN_IF_ERROR(
      shard->writer->Append(EncodeJournalPayload(gsn, inner_payload)));
  DMX_RETURN_IF_ERROR(shard->writer->Sync());
  ++shard->records;
  ++total_records_;
  if (options_.auto_checkpoint_interval > 0 &&
      total_records_ >= options_.auto_checkpoint_interval) {
    // The record above is already durable; a failed checkpoint leaves the
    // old snapshot+shards authoritative, so the statement still succeeds.
    (void)CheckpointLocked();
  }
  return Status::OK();
}

Result<DurableStore::Shard*> DurableStore::ResolveModelShard(
    const std::string& model) {
  auto mapped = model_shard_.find(model);
  if (mapped != model_shard_.end()) {
    return &shards_[mapped->second];
  }
  // A quarantined shard may still own this model; creating a second shard
  // would fork its history. A quarantine whose owner could not be recovered
  // (header unreadable, sidecar gone) may own ANY model, so it blocks every
  // new-shard creation until repaired.
  const QuarantineEntry* unattributed = nullptr;
  for (const auto& [id, entry] : quarantined_) {
    if (entry.model == model) {
      Status status = Unavailable()
                      << "model '" << model << "' is degraded: shard '" << id
                      << "' is quarantined (" << entry.reason << ")";
      return status.WithContext("quarantined shard '" + entry.file + "'");
    }
    if (entry.model.empty() && id != kCatalogShardId) {
      unattributed = &entry;
    }
  }
  if (unattributed != nullptr) {
    Status status = Unavailable()
                    << "cannot create a shard for model '" << model
                    << "': quarantined shard '" << unattributed->id
                    << "' has no recorded owner model and may own it ("
                    << unattributed->reason << ")";
    return status.WithContext("quarantined shard '" + unattributed->file +
                              "'");
  }
  Shard shard;
  shard.id = ModelShardId(next_shard_num_++);
  shard.model = model;
  shard.epoch = 1;
  shard.born_snapshot = seq_;
  std::string id = shard.id;
  shards_[id] = std::move(shard);
  model_shard_[model] = id;
  return &shards_[id];
}

Status DurableStore::JournalStatement(const std::string& text) {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(
      CheckWritable(kCatalogShardId).WithContext("journaling statement"));
  auto it = shards_.find(kCatalogShardId);
  if (it == shards_.end()) {
    Shard shard;
    shard.id = kCatalogShardId;
    shard.epoch = 1;
    shard.born_snapshot = seq_;
    it = shards_.emplace(kCatalogShardId, std::move(shard)).first;
  }
  return Append(&it->second, EncodeStatementRecord(text))
      .WithContext("journaling statement");
}

Status DurableStore::JournalModelStatement(const std::string& model,
                                           const std::string& text) {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(CheckWritable("").WithContext(
      "journaling statement for model '" + model + "'"));
  Result<Shard*> shard = ResolveModelShard(model);
  if (!shard.ok()) {
    return shard.status().WithContext("journaling statement for model '" +
                                      model + "'");
  }
  return Append(*shard, EncodeStatementRecord(text))
      .WithContext("journaling statement for model '" + model + "'");
}

Status DurableStore::JournalModelBlob(const std::string& name,
                                      const std::string& pmml) {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(
      CheckWritable("").WithContext("journaling model '" + name + "'"));
  Result<Shard*> resolved = ResolveModelShard(name);
  if (!resolved.ok()) {
    return resolved.status().WithContext("journaling model '" + name + "'");
  }
  Shard* shard = *resolved;
  std::string inner = EncodeModelRecord(name, pmml);

  if (shard->records == 0 && shard->writer == nullptr &&
      !env_->FileExists(ShardPath(shard->id, shard->epoch))) {
    // Fresh shard: the blob is its first record; no rotation needed.
    return Append(shard, std::move(inner))
        .WithContext("journaling model '" + name + "'");
  }

  // The blob supersedes everything this shard holds: rotate to a new epoch
  // containing only the blob. Commit point is the MANIFEST rewrite — until
  // it lands, recovery replays the old epoch (the blob is unacknowledged);
  // after it, the old epoch is stale.
  uint64_t old_epoch = shard->epoch;
  uint64_t old_records = shard->records;
  uint64_t new_epoch = old_epoch + 1;
  // Consumed unconditionally, same as Append: a failed rotation can still
  // leave the new epoch file on disk, and its record carries this gsn.
  uint64_t gsn = next_gsn_++;
  std::string bytes;
  AppendRecordTo(&bytes, EncodeShardHeader(shard->id, shard->model, new_epoch,
                                           seq_));
  AppendRecordTo(&bytes, EncodeJournalPayload(gsn, inner));
  DMX_RETURN_IF_ERROR(
      env_->AtomicWriteFile(ShardPath(shard->id, new_epoch), bytes)
          .WithContext("journaling model '" + name + "'"));

  shard->epoch = new_epoch;
  shard->born_snapshot = seq_;
  shard->records = 1;
  Status committed = WriteManifestLocked();
  if (!committed.ok()) {
    // Roll back: the old epoch file is untouched and still authoritative.
    shard->epoch = old_epoch;
    shard->records = old_records;
    shard->born_snapshot = seq_;
    (void)env_->DeleteFile(ShardPath(shard->id, new_epoch));
    return committed.WithContext("journaling model '" + name + "'");
  }
  if (shard->writer != nullptr) {
    (void)shard->writer->Close();
    shard->writer.reset();
  }
  (void)env_->DeleteFile(ShardPath(shard->id, old_epoch));
  total_records_ = total_records_ >= old_records
                       ? total_records_ - old_records + 1
                       : 1;
  if (options_.auto_checkpoint_interval > 0 &&
      total_records_ >= options_.auto_checkpoint_interval) {
    (void)CheckpointLocked();
  }
  return Status::OK();
}

Status DurableStore::WriteManifestLocked() {
  ManifestData manifest;
  manifest.seq = seq_;
  manifest.next_shard_num = next_shard_num_;
  for (const auto& [id, shard] : shards_) {
    ManifestShard entry;
    entry.id = id;
    entry.model = shard.model;
    entry.epoch = shard.epoch;
    entry.min_records = shard.records;
    manifest.shards.push_back(std::move(entry));
  }
  std::string file;
  AppendRecordTo(&file, EncodeManifestPayload(manifest));
  return env_->AtomicWriteFile(ManifestPath(), file)
      .WithContext("committing manifest");
}

Status DurableStore::Checkpoint() {
  MutexLock lock(&mu_);
  return CheckpointLocked();
}

Status DurableStore::CheckpointLocked() {
  if (quarantined_.count(kCatalogShardId) > 0) {
    return Unavailable() << "cannot checkpoint: catalog shard is quarantined "
                            "(checkpointing would discard its unreplayed "
                            "records); run Repair first";
  }
  DMX_ASSIGN_OR_RETURN(std::vector<StoreRecord> entries,
                       client_->CaptureSnapshot());
  uint64_t new_seq = seq_ + 1;

  // 1. Snapshot: write-temp -> fsync -> atomic rename.
  std::string snapshot;
  for (const StoreRecord& entry : entries) {
    std::string payload =
        entry.kind == 'M' ? EncodeModelRecord(entry.name, entry.data)
                          : EncodeTableRecord(entry.name, entry.meta,
                                              entry.data);
    AppendRecordTo(&snapshot, payload);
  }
  AppendRecordTo(&snapshot, "E");
  DMX_RETURN_IF_ERROR(
      env_->AtomicWriteFile(SnapshotPath(new_seq), snapshot)
          .WithContext("writing snapshot " + FormatSeq(new_seq)));

  // 2. Commit point: the MANIFEST rename flips recovery to the new epoch.
  // Every shard is retired — its records live in the snapshot now — so the
  // shard table is empty and model ids keep advancing from next_shard_num_.
  ManifestData manifest;
  manifest.seq = new_seq;
  manifest.next_shard_num = next_shard_num_;
  std::string file;
  AppendRecordTo(&file, EncodeManifestPayload(manifest));
  DMX_RETURN_IF_ERROR(env_->AtomicWriteFile(ManifestPath(), file)
                          .WithContext("committing manifest"));

  // 3. Retire the old epoch (best effort; stale files are swept on open).
  std::vector<std::string> old_files;
  for (auto& [id, shard] : shards_) {
    if (shard.writer != nullptr) {
      (void)shard.writer->Close();
      shard.writer.reset();
    }
    old_files.push_back(ShardPath(id, shard.epoch));
  }
  uint64_t old_seq = seq_;
  seq_ = new_seq;
  shards_.clear();
  model_shard_.clear();
  total_records_ = 0;
  for (const std::string& path : old_files) {
    if (env_->FileExists(path)) (void)env_->DeleteFile(path);
  }
  if (old_seq > 0 && env_->FileExists(SnapshotPath(old_seq))) {
    (void)env_->DeleteFile(SnapshotPath(old_seq));
  }
  return Status::OK();
}

Status DurableStore::Repair(const std::string& shard_id, RepairStats* stats) {
  MutexLock lock(&mu_);
  auto it = quarantined_.find(shard_id);
  if (it == quarantined_.end()) {
    return NotFound() << "no quarantined shard '" << shard_id << "'";
  }
  QuarantineEntry& entry = it->second;
  if (entry.partial_this_session) {
    return InvalidState()
           << "shard '" << shard_id
           << "' was partially replayed this session; reopen the store "
              "before repairing it";
  }

  // 1. Truncate-to-valid-prefix: take every record that still parses, in
  // file order (ascending gsn). A shard whose file is missing re-adopts
  // empty — the quarantine mark is what gets cleared.
  RepairStats local;
  std::vector<StoreRecord> records;
  const std::string qpath = QuarantineDir() + "/" + entry.file;
  if (env_->FileExists(qpath)) {
    DMX_ASSIGN_OR_RETURN(std::string data, env_->ReadFileToString(qpath));
    ParsedPrefix parsed = ParseLogPrefix(data);
    local.bytes_dropped = data.size() - parsed.log.valid_bytes;
    for (size_t r = 0; r < parsed.log.records.size(); ++r) {
      const std::string& payload = parsed.log.records[r];
      if (r == 0) {
        ShardHeader header;
        if (DecodeShardHeader(payload, &header)) continue;
        // No valid header: nothing below can be trusted.
        break;
      }
      uint64_t gsn = 0;
      std::string_view inner;
      if (!DecodeJournalPayload(payload, &gsn, &inner)) break;
      Result<StoreRecord> decoded = DecodeStoreRecord(inner);
      if (!decoded.ok() || (decoded->kind != 'S' && decoded->kind != 'M')) {
        break;
      }
      records.push_back(std::move(*decoded));
    }
  }

  // 2. Re-apply the prefix through the client. Statements are re-executed
  // against the *current* catalog; a record superseded by later state
  // (kAlreadyExists — e.g. a CREATE whose object was since restored from a
  // blob) is skipped, any other failure aborts with the shard still
  // quarantined.
  for (const StoreRecord& record : records) {
    Status status;
    if (record.kind == 'S') {
      status = client_->ApplyStatement(record.data);
    } else {
      Result<PreparedObject> prepared = client_->PrepareModelBlob(record.data);
      status = prepared.ok()
                   ? client_->ApplyPreparedModel(record.name, *prepared)
                   : prepared.status();
    }
    if (status.code() == StatusCode::kAlreadyExists) {
      ++local.records_skipped;
      continue;
    }
    if (!status.ok()) {
      entry.partial_this_session = local.records_reapplied > 0;
      return status.WithContext("repairing shard '" + shard_id + "'");
    }
    ++local.records_reapplied;
  }

  // 3. Re-adopt at a bumped epoch: rewrite the records with fresh gsns (the
  // old ones may collide with records journaled since the quarantine), then
  // commit via the MANIFEST.
  uint64_t new_epoch = entry.epoch + 1;
  std::string bytes;
  AppendRecordTo(&bytes, EncodeShardHeader(entry.id, entry.model, new_epoch,
                                           seq_));
  uint64_t first_gsn = next_gsn_;
  uint64_t gsn = first_gsn;
  for (const StoreRecord& record : records) {
    std::string inner = record.kind == 'S'
                            ? EncodeStatementRecord(record.data)
                            : EncodeModelRecord(record.name, record.data);
    AppendRecordTo(&bytes, EncodeJournalPayload(gsn++, inner));
  }
  Status wrote = env_->AtomicWriteFile(ShardPath(entry.id, new_epoch), bytes)
                     .WithContext("re-adopting shard '" + shard_id + "'");
  if (!wrote.ok()) {
    // Step 2 already mutated the live catalog: a same-session retry would
    // re-apply those records on top of themselves.
    entry.partial_this_session = local.records_reapplied > 0;
    return wrote;
  }

  Shard shard;
  shard.id = entry.id;
  shard.model = entry.model;
  shard.epoch = new_epoch;
  shard.born_snapshot = seq_;
  shard.records = records.size();
  std::string model = entry.model;
  std::string file = entry.file;
  shards_[shard_id] = std::move(shard);
  if (!model.empty()) model_shard_[model] = shard_id;
  quarantined_.erase(it);

  Status committed = WriteManifestLocked();
  if (!committed.ok()) {
    // Roll back the adoption; the quarantine stays in place.
    shards_.erase(shard_id);
    if (!model.empty()) model_shard_.erase(model);
    QuarantineEntry restored;
    restored.id = shard_id;
    restored.model = model;
    restored.epoch = new_epoch - 1;
    restored.file = file;
    restored.reason = "repair interrupted: " + committed.ToString();
    // The step-2 catalog mutations are not rolled back; refuse a
    // same-session retry that would double-apply them.
    restored.partial_this_session = local.records_reapplied > 0;
    quarantined_[shard_id] = std::move(restored);
    (void)env_->DeleteFile(ShardPath(shard_id, new_epoch));
    return committed.WithContext("re-adopting shard '" + shard_id + "'");
  }
  next_gsn_ = gsn;
  total_records_ += records.size();
  (void)env_->DeleteFile(qpath);
  (void)env_->DeleteFile(qpath + ".reason");
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

StoreStatus DurableStore::GetStatus() const {
  MutexLock lock(&mu_);
  StoreStatus out;
  out.snapshot_seq = seq_;
  for (const auto& [id, shard] : shards_) {
    ShardStatus row;
    row.id = id;
    row.model = shard.model;
    row.epoch = shard.epoch;
    row.records = shard.records;
    out.shards.push_back(std::move(row));
  }
  for (const auto& [id, entry] : quarantined_) {
    ShardStatus row;
    row.id = id;
    row.model = entry.model;
    row.epoch = entry.epoch;
    row.quarantined = true;
    row.reason = entry.reason;
    out.shards.push_back(std::move(row));
  }
  return out;
}

}  // namespace dmx::store
