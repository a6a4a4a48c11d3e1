// The three workloads: what each one builds at set-up, the statements each
// session sends, and the oracle every response is checked against. Why each
// workload exists is in README.md.

#ifndef DMXBENCH_WORKLOADS_H_
#define DMXBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rowset.h"
#include "common/status.h"
#include "core/provider.h"

namespace dmxbench {

/// Statement kinds; per-kind metrics are named after KindName().
enum class Kind {
  kSelectPoint,
  kPredictSingleton,
  kPredictBatch,
  kInsertRow,
  kInsertCases,
};
inline constexpr int kNumKinds = 5;
const char* KindName(Kind kind);
inline bool IsWrite(Kind kind) {
  return kind == Kind::kInsertRow || kind == Kind::kInsertCases;
}

struct Statement {
  std::string text;
  Kind kind = Kind::kSelectPoint;
  int32_t expect = -1;  ///< Reads: index into Workload::expectations.
  int64_t key = 0;      ///< Writes: row id, or first customer of the slice.
  int64_t cases = 0;    ///< kInsertCases: customers in the slice.
};

/// What a read must return: its row count and an order-sensitive digest of
/// every cell.
struct Expectation {
  size_t rows = 0;
  uint64_t digest = 0;
};
uint64_t DigestRows(const std::vector<dmx::Row>& rows);

/// Where one set-up instance keeps its store (durable workloads only) and
/// which Env the store writes through (nullptr: the product default).
struct BuildEnv {
  std::string store_dir;
  dmx::Env* env = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Client sessions, all driven as closed loops from this process.
  virtual int sessions() const = 0;
  virtual bool durable() const { return false; }

  /// Populates, trains and (durable) opens the store of a fresh provider.
  /// This is the timed part of set-up, together with the handshakes.
  virtual dmx::Status Build(dmx::Provider* provider, const BuildEnv& env) = 0;
  /// Fills `expectations` for every read in the pool (untimed). SELECTs are
  /// answered from the generator's own data; predictions from an in-process
  /// Connection::Execute reference.
  virtual dmx::Status ComputeExpectations(dmx::Provider* provider) = 0;

  /// After the load and the drain: reopens the store in a fresh provider and
  /// checks that it holds exactly the acknowledged writes. Returns the number
  /// of acknowledged writes that are missing or wrong, or an error.
  virtual dmx::Result<uint64_t> VerifyRecovery(
      const BuildEnv& env, const std::vector<const Statement*>& acked,
      std::unique_ptr<dmx::Provider>* reopened) {
    (void)env;
    (void)acked;
    (void)reopened;
    return uint64_t{0};
  }

  /// Statements for the single-threaded decomposition pass: a prefix of
  /// the run's mix. Its writes are templates; the pass re-keys each one
  /// through FreshWrite before executing it.
  virtual std::vector<Statement> DecompositionSample() const = 0;
  /// The `n`-th spare write of `kind`, keyed past every key the run used.
  virtual dmx::Result<Statement> FreshWrite(Kind kind, int64_t n) const {
    (void)kind;
    (void)n;
    return dmx::InvalidState() << name() << " sends no writes";
  }
  /// Leading sessions of the plan that send writes (the rest only read).
  virtual int writers() const { return 0; }
  /// CREATE TABLE of the table the single-row INSERTs go to ("" if none).
  virtual std::string RowTableDdl() const { return ""; }

  /// Statements per session, fixed by the seed and the run length.
  const std::vector<std::vector<const Statement*>>& plan() const {
    return plan_;
  }
  /// Oracle for one response.
  bool Check(const Statement& statement, const dmx::Rowset& result) const;

  std::vector<Expectation> expectations;

 protected:
  /// Points into statements the workload owns (pools, or unique writes).
  std::vector<std::vector<const Statement*>> plan_;
};

/// nullptr for an unknown name. `seconds` is the length of one load: it
/// scales the statement count of every session.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double seconds);

}  // namespace dmxbench

#endif  // DMXBENCH_WORKLOADS_H_
