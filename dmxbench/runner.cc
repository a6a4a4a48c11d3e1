#include "runner.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <utility>
#include <variant>

#include "core/dmx_parser.h"
#include "core/prediction_join.h"
#include "relational/sql_executor.h"
#include "relational/sql_parser.h"
#include "server/wire.h"
#include "shape/shape_executor.h"

namespace dmxbench {

namespace {

/// Repetitions of each read in the decomposition pass (median taken);
/// writes run once because each one changes the state it measures.
constexpr int kReadReps = 5;
/// Rows per Chunk frame: the server's default, so the encoded frames are
/// the ones the server sends.
constexpr size_t kChunkRows = dmx::server::ServerOptions{}.chunk_rows;

/// Times `fn` as one span named `name`; returns microseconds.
template <typename Fn>
double Timed(std::vector<Span>* spans, const char* name, Fn&& fn) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  fn();
  span.end_ns = NowNs();
  spans->push_back(span);
  return static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
}

/// Median over `reps` timed calls of `fn`.
template <typename Fn>
double TimedMedian(std::vector<Span>* spans, const char* name, int reps,
                   Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) us.push_back(Timed(spans, name, fn));
  return Median(us);
}

/// The frames the server writes for `result` (Schema, Chunks, Done).
std::vector<std::string> EncodeResponse(const dmx::Rowset& result) {
  using dmx::server::FrameType;
  std::vector<std::string> frames;
  dmx::server::SchemaBody schema;
  schema.request_id = 1;
  schema.schema = result.schema();
  frames.push_back(dmx::server::EncodeFrame(
      FrameType::kSchema, dmx::server::EncodeSchemaBody(schema)));
  const std::vector<dmx::Row>& rows = result.rows();
  for (size_t off = 0; off < rows.size(); off += kChunkRows) {
    dmx::server::ChunkBody chunk;
    chunk.request_id = 1;
    size_t end = std::min(rows.size(), off + kChunkRows);
    chunk.rows.assign(rows.begin() + static_cast<ptrdiff_t>(off),
                      rows.begin() + static_cast<ptrdiff_t>(end));
    frames.push_back(dmx::server::EncodeFrame(
        FrameType::kChunk, dmx::server::EncodeChunk(chunk)));
  }
  dmx::server::DoneBody done;
  done.request_id = 1;
  frames.push_back(dmx::server::EncodeFrame(FrameType::kDone,
                                            dmx::server::EncodeDone(done)));
  return frames;
}

/// Decodes the bodies of `frames` the way the client does after framing.
dmx::Status DecodeResponse(const std::vector<std::string>& frames) {
  constexpr size_t kBodyOffset = 9;  // [u32 size][u32 crc][type]
  for (const std::string& frame : frames) {
    std::string_view body(frame);
    body.remove_prefix(kBodyOffset);
    switch (static_cast<dmx::server::FrameType>(frame[kBodyOffset - 1])) {
      case dmx::server::FrameType::kSchema:
        DMX_RETURN_IF_ERROR(dmx::server::DecodeSchemaBody(body).status());
        break;
      case dmx::server::FrameType::kChunk:
        DMX_RETURN_IF_ERROR(dmx::server::DecodeChunk(body).status());
        break;
      default:
        DMX_RETURN_IF_ERROR(dmx::server::DecodeDone(body).status());
    }
  }
  return dmx::Status::OK();
}

std::string MetricSuffix(std::string service) {
  for (char& c : service) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return service;
}

/// Case assembly for a caseset source: SHAPE through ShapedCaseReader, a
/// plain SELECT through ExecuteSelect. Returns {microseconds, cases}.
dmx::Result<std::pair<double, size_t>> AssembleSource(
    const dmx::rel::Database& db, const dmx::CasesetSource& source,
    std::vector<Span>* spans) {
  size_t cases = 0;
  dmx::Status status;
  double us = 0;
  if (const auto* shape = std::get_if<dmx::shape::ShapeStatement>(&source)) {
    us = Timed(spans, "shape.case_assembly", [&] {
      auto reader = dmx::shape::ShapedCaseReader::Create(db, *shape);
      if (!reader.ok()) {
        status = reader.status();
        return;
      }
      dmx::Row row;
      while (true) {
        dmx::Result<bool> has = (*reader)->Next(&row);
        if (!has.ok()) {
          status = has.status();
          return;
        }
        if (!*has) break;
        ++cases;
      }
    });
  } else if (const auto* select =
                 std::get_if<dmx::rel::SelectStatement>(&source)) {
    us = Timed(spans, "relational.source_select", [&] {
      auto rows = dmx::rel::ExecuteSelect(db, *select);
      if (rows.ok()) {
        cases = rows->num_rows();
      } else {
        status = rows.status();
      }
    });
  } else {
    return dmx::NotSupported() << "OPENROWSET sources are not replayed";
  }
  DMX_RETURN_IF_ERROR(status);
  return std::make_pair(us, std::max<size_t>(cases, 1));
}

/// Per-kind accumulators of the decomposition pass.
struct KindTimes {
  std::vector<double> execute_us, encode_us, decode_us, round_trip_us;
};

}  // namespace

// --- Served ------------------------------------------------------------------

Served::Served(Workload* workload, std::string store_dir, bool traced)
    : workload_(workload), traced_(traced) {
  build_env_.store_dir = std::move(store_dir);
  if (traced_) {
    env_ = std::make_unique<CountingEnv>(&store_counters_);
    build_env_.env = env_.get();
  }
}

Served::~Served() {
  if (server_ != nullptr) (void)server_->Drain();
  for (std::thread& thread : serving_) {
    if (thread.joinable()) thread.join();
  }
  clients_.clear();
  server_.reset();
  provider_.reset();
}

dmx::Status Served::Start() {
  provider_ = std::make_unique<dmx::Provider>();
  DMX_RETURN_IF_ERROR(workload_->Build(provider_.get(), build_env_));
  server_ = std::make_unique<dmx::server::DmxServer>(
      provider_.get(), dmx::server::ServerOptions{});
  for (int session = 0; session < workload_->sessions(); ++session) {
    traces_.push_back(std::make_unique<SessionTrace>());
    SessionTrace* trace = traces_.back().get();
    trace->session = session;
    auto [server_end, client_end] = dmx::server::MakeLocalPipe();
    if (traced_) {
      server_end =
          std::make_unique<ServerEndTransport>(std::move(server_end), trace);
      client_end =
          std::make_unique<ClientEndTransport>(std::move(client_end), trace);
    }
    serving_.emplace_back(
        [server = server_.get(), end = std::move(server_end)]() mutable {
          server->ServeConnection(std::move(end));
        });
    DMX_ASSIGN_OR_RETURN(std::unique_ptr<dmx::server::DmxClient> client,
                         dmx::server::DmxClient::Handshake(
                             std::move(client_end),
                             dmx::server::ClientOptions{}));
    clients_.push_back(std::move(client));
  }
  return dmx::Status::OK();
}

dmx::Result<double> Served::Drain() {
  int64_t start = NowNs();
  dmx::Status status = server_->Drain();
  double ms = static_cast<double>(NowNs() - start) / 1e6;
  for (std::thread& thread : serving_) thread.join();
  DMX_RETURN_IF_ERROR(status);
  return ms;
}

// --- load --------------------------------------------------------------------

dmx::Result<LoadResult> RunLoad(Served* served,
                                const std::function<void()>& before_drain) {
  Workload* workload = served->workload();
  const int sessions = workload->sessions();
  struct SessionOut {
    std::vector<Sample> samples;
    uint64_t failed = 0;
    std::vector<const Statement*> acked;
    std::vector<std::string> errors;
    int64_t end_ns = 0;     ///< When the last plan statement's reply arrived.
    int64_t closed_ns = 0;  ///< When the closing statement's reply arrived.
  };
  std::vector<SessionOut> out(static_cast<size_t>(sessions));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      SessionOut& mine = out[static_cast<size_t>(s)];
      dmx::server::DmxClient* client = served->client(s);
      SessionTrace* trace = served->traced() ? served->trace(s) : nullptr;
      const std::vector<const Statement*>& plan =
          workload->plan()[static_cast<size_t>(s)];
      // Sized and touched before the start: page faults on the sample
      // buffer would otherwise land in the first load's timings.
      mine.samples.resize(plan.size());
      size_t ok = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < plan.size(); ++i) {
        const Statement& statement = *plan[i];
        if (trace != nullptr) trace->BeginStatement(static_cast<int64_t>(i));
        int64_t start = NowNs();
        dmx::Result<dmx::Rowset> result = client->Execute(statement.text);
        int64_t end = NowNs();
        mine.end_ns = end;
        if (trace != nullptr) trace->EndStatement();
        if (!result.ok()) {
          ++mine.failed;
          if (mine.errors.size() < 3) {
            mine.errors.push_back(result.status().ToString() + " <- " +
                                  statement.text.substr(0, 120));
          }
          continue;
        }
        if (!workload->Check(statement, *result)) {
          ++mine.failed;
          if (mine.errors.size() < 3) {
            mine.errors.push_back("oracle mismatch (" +
                                  std::to_string(result->num_rows()) +
                                  " rows) <- " + statement.text.substr(0, 120));
          }
          continue;
        }
        mine.samples[ok++] = {end, static_cast<double>(end - start) / 1000.0,
                              statement.kind, result->num_rows()};
        if (IsWrite(statement.kind)) mine.acked.push_back(&statement);
      }
      mine.samples.resize(ok);
      // A one-row closing statement, outside the measurement: each server
      // session starts its idle read poll as this small reply leaves,
      // whatever the workload's last statement was, so the drain below
      // starts at the same phase of every poll slice on every workload.
      if (trace != nullptr) trace->recording.store(false);
      dmx::Result<dmx::Rowset> closing = client->Execute(kClosingStatement);
      mine.closed_ns = NowNs();
      if (!closing.ok() || closing->num_rows() != 1) {
        ++mine.failed;
        mine.errors.push_back("closing statement failed");
      }
    });
  }
  while (ready.load() < sessions) std::this_thread::yield();
  if (served->traced()) {
    for (int s = 0; s < sessions; ++s) {
      served->trace(s)->recording.store(true, std::memory_order_relaxed);
    }
  }
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  int64_t last_closed = start;
  for (const SessionOut& mine : out) {
    last_closed = std::max(last_closed, mine.closed_ns);
  }
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
          last_closed + int64_t{kDrainDelayMs} * 1'000'000)));
  before_drain();
  DMX_ASSIGN_OR_RETURN(double drain_ms, served->Drain());

  LoadResult result;
  result.drain_ms = drain_ms;
  result.start_ns = start;
  result.steady_end_ns = out[0].end_ns;
  for (size_t s = 0; s < out.size(); ++s) {
    const SessionOut& mine = out[s];
    result.steady_end_ns = std::min(result.steady_end_ns, mine.end_ns);
    result.planned += workload->plan()[s].size();
    result.attempted += workload->plan()[s].size() + 1;  // + closing.
    result.failed += mine.failed;
    for (const Sample& sample : mine.samples) {
      (IsWrite(sample.kind) ? result.write_us : result.read_us)
          .push_back(sample.us);
      result.samples.push_back(sample);
    }
    for (const Statement* statement : mine.acked) {
      result.acked.push_back(statement);
      result.write_text_bytes += statement->text.size();
    }
    result.errors.insert(result.errors.end(), mine.errors.begin(),
                         mine.errors.end());
  }
  return result;
}

void Summary::Add(const LoadResult& load) {
  constexpr size_t kReadsPerWindow = 1000;  // Supports(1000, 0.99).
  std::vector<const Sample*> steady;
  size_t steady_reads = 0;
  for (const Sample& s : load.samples) {
    if (s.end_ns > load.steady_end_ns) continue;
    steady.push_back(&s);
    if (!IsWrite(s.kind)) ++steady_reads;
  }
  const size_t windows =
      std::clamp<size_t>(steady_reads / kReadsPerWindow, 1, kWindows);
  const double span_ns =
      static_cast<double>(load.steady_end_ns - load.start_ns);
  const double window_s = span_ns / static_cast<double>(windows) / 1e9;
  std::vector<double> stmts(windows), rows(windows);
  std::vector<std::vector<double>> reads(windows);
  for (const Sample* sp : steady) {
    const Sample& s = *sp;
    size_t w = std::min(
        windows - 1,
        static_cast<size_t>(static_cast<double>(s.end_ns - load.start_ns) /
                            span_ns * static_cast<double>(windows)));
    stmts[w] += 1;
    rows[w] += static_cast<double>(s.rows);
    if (!IsWrite(s.kind)) reads[w].push_back(s.us);
  }
  for (size_t w = 0; w < windows; ++w) {
    rate_.push_back(stmts[w] / window_s);
    row_rate_.push_back(rows[w] / window_s);
    std::sort(reads[w].begin(), reads[w].end());
    if (!reads[w].empty()) p50_.push_back(QuantileSorted(reads[w], 0.5));
    if (Supports(reads[w].size(), 0.99)) {
      p99_.push_back(QuantileSorted(reads[w], 0.99));
    }
    reads_.insert(reads_.end(), reads[w].begin(), reads[w].end());
  }
}

double Summary::read_p99_us() const {
  if (!p99_.empty()) return Median(p99_);
  if (!Supports(reads_.size(), 0.99)) return 0;
  std::vector<double> sorted = reads_;
  std::sort(sorted.begin(), sorted.end());
  return QuantileSorted(sorted, 0.99);
}

// --- decomposition -------------------------------------------------------------

dmx::Result<std::map<std::string, double>> Decompose(
    Workload* workload, dmx::Provider* provider, StoreCounters* counters,
    std::vector<Span>* spans) {
  std::map<std::string, double> m;
  const std::vector<Statement> templates = workload->DecompositionSample();
  int64_t fresh[kNumKinds] = {};  // Spare keys used so far, per kind.
  auto concrete = [&](const Statement& s) -> dmx::Result<Statement> {
    if (!IsWrite(s.kind)) return s;
    return workload->FreshWrite(s.kind, fresh[static_cast<int>(s.kind)]++);
  };

  KindTimes kinds[kNumKinds];
  std::vector<double> parse_dmx, parse_sql, rel_execute, shape_per_case,
      train_per_case;
  std::map<std::string, std::vector<double>> join_per_case, predict_per_case;
  double wire_bytes = 0;
  double wire_rows = 0;
  auto conn = provider->Connect();
  dmx::rel::Database* db = provider->database();

  // 1. In-process, one layer call at a time.
  for (const Statement& t : templates) {
    DMX_ASSIGN_OR_RETURN(Statement s, concrete(t));
    const int reps = IsWrite(s.kind) ? 1 : kReadReps;
    KindTimes& kt = kinds[static_cast<int>(s.kind)];
    const double parse_us = TimedMedian(spans, "core.parse_dmx", kReadReps,
                                        [&] { (void)dmx::ParseDmx(s.text); });
    parse_dmx.push_back(parse_us);
    DMX_ASSIGN_OR_RETURN(dmx::DmxParseResult parsed, dmx::ParseDmx(s.text));
    if (parsed.is_sql) {
      parse_sql.push_back(TimedMedian(spans, "relational.parse_sql", kReadReps,
                                      [&] { (void)dmx::rel::ParseSql(s.text); }));
      DMX_ASSIGN_OR_RETURN(dmx::rel::SqlStatement sql,
                           dmx::rel::ParseSql(s.text));
      if (std::holds_alternative<dmx::rel::SelectStatement>(sql)) {
        rel_execute.push_back(
            TimedMedian(spans, "relational.execute", reps,
                        [&] { (void)dmx::rel::Execute(db, sql); }));
      }
    }

    const uint64_t sync_before = counters->sync_ns.load();
    dmx::Result<dmx::Rowset> result = dmx::Rowset();
    const double exec_us = TimedMedian(spans, "core.execute", reps, [&] {
      result = conn->Execute(s.text);
    });
    if (!result.ok()) return result.status().WithContext(s.text);
    if (!workload->Check(s, *result)) {
      return dmx::Internal() << "decomposition oracle mismatch: " << s.text;
    }
    const double sync_us =
        static_cast<double>(counters->sync_ns.load() - sync_before) / 1000.0 /
        reps;
    kt.execute_us.push_back(exec_us);

    std::vector<std::string> frames;
    kt.encode_us.push_back(TimedMedian(spans, "wire.encode", kReadReps, [&] {
      frames = EncodeResponse(*result);
    }));
    dmx::Status decoded;
    kt.decode_us.push_back(TimedMedian(spans, "wire.decode", kReadReps, [&] {
      decoded = DecodeResponse(frames);
    }));
    DMX_RETURN_IF_ERROR(decoded);
    for (const std::string& frame : frames) wire_bytes += frame.size();
    wire_rows += result->num_rows();

    if (parsed.is_sql) continue;
    if (auto* join =
            std::get_if<dmx::PredictionJoinStatement>(&*parsed.statement)) {
      DMX_ASSIGN_OR_RETURN(auto assembled,
                           AssembleSource(*db, join->source, spans));
      const double cases = static_cast<double>(assembled.second);
      dmx::Status joined;
      const double join_us =
          TimedMedian(spans, "core.prediction_join", reps, [&] {
            joined = dmx::ExecutePredictionJoin(*db, provider->models(), *join)
                         .status();
          });
      DMX_RETURN_IF_ERROR(joined);
      DMX_ASSIGN_OR_RETURN(const dmx::MiningModel* model,
                           provider->models()->GetModel(join->model_name));
      const std::string svc = MetricSuffix(model->trained()->service_name());
      join_per_case[svc].push_back(join_us / cases);
      predict_per_case[svc].push_back((join_us - assembled.first) / cases);
      if (std::holds_alternative<dmx::shape::ShapeStatement>(join->source)) {
        shape_per_case.push_back(assembled.first / cases);
      }
    } else if (auto* insert = std::get_if<dmx::InsertIntoStatement>(
                   &*parsed.statement)) {
      DMX_ASSIGN_OR_RETURN(auto assembled,
                           AssembleSource(*db, insert->source, spans));
      const double cases = static_cast<double>(assembled.second);
      shape_per_case.push_back(assembled.first / cases);
      train_per_case.push_back(
          (exec_us - sync_us - parse_us - assembled.first) / cases);
    }
  }

  // 2. The same mix served over one session with nothing else running:
  // the uncontended round trip the layer times are subtracted from.
  {
    dmx::server::DmxServer server(provider, dmx::server::ServerOptions{});
    auto [server_end, client_end] = dmx::server::MakeLocalPipe();
    std::thread serving(
        [&server, end = std::move(server_end)]() mutable {
          server.ServeConnection(std::move(end));
        });
    dmx::Status status;
    {
      auto client = dmx::server::DmxClient::Handshake(
          std::move(client_end), dmx::server::ClientOptions{});
      status = client.status();
      for (const Statement& t : templates) {
        if (!status.ok()) break;
        dmx::Result<Statement> s = concrete(t);
        if (!s.ok()) {
          status = s.status();
          break;
        }
        const int reps = IsWrite(s->kind) ? 1 : kReadReps;
        dmx::Result<dmx::Rowset> result = dmx::Rowset();
        double rt = TimedMedian(spans, "client.round_trip", reps, [&] {
          result = (*client)->Execute(s->text);
        });
        if (!result.ok()) {
          status = result.status();
        } else if (!workload->Check(*s, *result)) {
          status = dmx::Internal() << "round-trip oracle mismatch: " << s->text;
        }
        kinds[static_cast<int>(s->kind)].round_trip_us.push_back(rt);
      }
      // The client's Goodbye ends the session; Drain then has nothing to
      // wait for.
    }
    dmx::Status drained = server.Drain();
    serving.join();
    DMX_RETURN_IF_ERROR(status);
    DMX_RETURN_IF_ERROR(drained);
  }

  // 3. The workload's concurrency in-process: readers replay the sample's
  // reads while writer threads (durable_ingest) insert fresh rows.
  std::vector<const Statement*> reads;
  for (const Statement& t : templates) {
    if (!IsWrite(t.kind)) reads.push_back(&t);
  }
  double uncontended = 0;
  double uncontended_n = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    if (IsWrite(static_cast<Kind>(k))) continue;
    for (double us : kinds[k].execute_us) {
      uncontended += us;
      ++uncontended_n;
    }
  }
  uncontended = uncontended_n > 0 ? uncontended / uncontended_n : 0;
  {
    std::atomic<int> readers_left{workload->sessions() - workload->writers()};
    std::atomic<int64_t> next_fresh{fresh[static_cast<int>(Kind::kInsertRow)]};
    std::vector<std::vector<double>> contended(
        static_cast<size_t>(workload->sessions()));
    std::vector<dmx::Status> statuses(static_cast<size_t>(workload->sessions()));
    std::vector<std::thread> threads;
    for (int t = 0; t < workload->sessions(); ++t) {
      threads.emplace_back([&, t] {
        auto thread_conn = provider->Connect();
        dmx::Status& status = statuses[static_cast<size_t>(t)];
        if (t < workload->writers()) {
          while (readers_left.load() > 0 && status.ok()) {
            dmx::Result<Statement> s =
                workload->FreshWrite(Kind::kInsertRow, next_fresh++);
            status = s.ok() ? thread_conn->Execute(s->text).status()
                            : s.status();
          }
          return;
        }
        for (int pass = 0; pass < kReadReps && status.ok(); ++pass) {
          for (const Statement* s : reads) {
            int64_t start = NowNs();
            status = thread_conn->Execute(s->text).status();
            contended[static_cast<size_t>(t)].push_back(
                static_cast<double>(NowNs() - start) / 1000.0);
            if (!status.ok()) break;
          }
        }
        readers_left.fetch_sub(1);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const dmx::Status& status : statuses) DMX_RETURN_IF_ERROR(status);
    std::vector<double> all;
    for (const auto& v : contended) all.insert(all.end(), v.begin(), v.end());
    m["core.lock_wait_us"] = Mean(all) - uncontended;
  }

  // Per-kind execute times and the handoff residual.
  double residual_sum = 0;
  double residual_n = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    const KindTimes& kt = kinds[k];
    m[std::string("core.execute_us.") + KindName(static_cast<Kind>(k))] =
        Mean(kt.execute_us);
    if (kt.round_trip_us.empty()) continue;
    Residual r = HandoffResidual(Mean(kt.round_trip_us), Mean(kt.execute_us),
                                 Mean(kt.encode_us), Mean(kt.decode_us));
    if (r.negative) {
      std::printf("FLAG server.handoff_us is negative for %s: %.3f us\n",
                  KindName(static_cast<Kind>(k)), r.us);
    }
    const double n = static_cast<double>(kt.round_trip_us.size());
    residual_sum += r.us * n;
    residual_n += n;
  }
  m["server.handoff_us"] = residual_n > 0 ? residual_sum / residual_n : 0;

  std::vector<double> encode, decode;
  for (const KindTimes& kt : kinds) {
    encode.insert(encode.end(), kt.encode_us.begin(), kt.encode_us.end());
    decode.insert(decode.end(), kt.decode_us.begin(), kt.decode_us.end());
  }
  m["wire.encode_us"] = Mean(encode);
  m["wire.decode_us"] = Mean(decode);
  m["wire.bytes_per_row"] = wire_rows > 0 ? wire_bytes / wire_rows : 0;
  m["core.parse_dmx_us"] = Mean(parse_dmx);
  m["relational.parse_sql_us"] = Mean(parse_sql);
  m["relational.execute_us"] = Mean(rel_execute);
  m["shape.case_assembly_us_per_case"] = Mean(shape_per_case);
  m["algorithms.train_us_per_case"] = Mean(train_per_case);
  for (const char* svc : {"naive_bayes", "decision_trees", "clustering"}) {
    m[std::string("core.prediction_join_us_per_case.") + svc] =
        Mean(join_per_case[svc]);
    m[std::string("algorithms.predict_us_per_case.") + svc] =
        Mean(predict_per_case[svc]);
  }
  return m;
}

std::map<std::string, double> InsertGrowth(const Workload& workload) {
  std::map<std::string, double> m = {{"relational.insert_us_first_decile", 0},
                                     {"relational.insert_us_last_decile", 0},
                                     {"relational.insert_growth", 0}};
  // The run's single-row INSERTs in the order the writers interleave them.
  std::vector<const Statement*> inserts;
  size_t longest = 0;
  for (int w = 0; w < workload.writers(); ++w) {
    longest = std::max(longest, workload.plan()[static_cast<size_t>(w)].size());
  }
  for (size_t i = 0; i < longest; ++i) {
    for (int w = 0; w < workload.writers(); ++w) {
      const auto& plan = workload.plan()[static_cast<size_t>(w)];
      if (i < plan.size() && plan[i]->kind == Kind::kInsertRow) {
        inserts.push_back(plan[i]);
      }
    }
  }
  if (inserts.size() < 20) return m;

  dmx::rel::Database db;
  if (!dmx::rel::ExecuteSql(&db, workload.RowTableDdl()).ok()) return m;
  std::vector<double> us;
  us.reserve(inserts.size());
  for (const Statement* s : inserts) {
    dmx::Result<dmx::rel::SqlStatement> sql = dmx::rel::ParseSql(s->text);
    if (!sql.ok()) return m;
    int64_t start = NowNs();
    bool ok = dmx::rel::Execute(&db, *sql).ok();
    us.push_back(static_cast<double>(NowNs() - start) / 1000.0);
    if (!ok) return m;
  }
  const size_t decile = us.size() / 10;
  std::vector<double> first(us.begin(), us.begin() + decile);
  std::vector<double> last(us.end() - decile, us.end());
  m["relational.insert_us_first_decile"] = Mean(first);
  m["relational.insert_us_last_decile"] = Mean(last);
  m["relational.insert_growth"] = Mean(last) / Mean(first);
  return m;
}

}  // namespace dmxbench
