// The serving front end under load and under fire (DESIGN.md §13): wire
// codec round trips, multi-session fault-schedule sweeps over in-memory
// pipes, client retry/backoff against admission and drain rejections, and
// the graceful-drain state machine end to end over real TCP with a store
// reopen proving zero quarantines and catalog == acked-statement prefix.
//
// Timing-sensitive (idle timeouts, write stalls, drain grace), so the
// binary is registered SERIAL in tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/nested_table.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "core/provider.h"
#include "datagen/warehouse.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "server/wire.h"

namespace dmx::server {
namespace {

// RetryClock that records instead of sleeping: retry schedules are
// asserted, not waited out.
class RecordingClock : public RetryClock {
 public:
  void SleepMs(int ms) override { sleeps_.push_back(ms); }
  const std::vector<int>& sleeps() const { return sleeps_; }

 private:
  std::vector<int> sleeps_;
};

std::unique_ptr<Provider> MakePaperProvider() {
  auto provider = std::make_unique<Provider>();
  auto status = datagen::LoadPaperExample(provider->database());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return provider;
}

// Serves one pipe end on a background thread; joins on destruction.
class PipeSession {
 public:
  PipeSession(DmxServer* server, std::unique_ptr<Transport> end)
      : thread_([server, transport = std::move(end)]() mutable {
          server->ServeConnection(std::move(transport));
        }) {}
  ~PipeSession() { Join(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

// Server-end decorator counting Reads that return kDeadlineExceeded: each
// is a wake-up that found nothing to do, which a woken (not polled)
// session never has.
class TimeoutCountingTransport : public Transport {
 public:
  TimeoutCountingTransport(std::unique_ptr<Transport> base,
                           std::atomic<int>* timeouts)
      : base_(std::move(base)), timeouts_(timeouts) {}

  Result<size_t> Read(char* buf, size_t n, int timeout_ms) override {
    Result<size_t> got = base_->Read(buf, n, timeout_ms);
    if (!got.ok() && got.status().IsDeadlineExceeded()) {
      timeouts_->fetch_add(1);
    }
    return got;
  }
  Status Write(std::string_view data, int timeout_ms) override {
    return base_->Write(data, timeout_ms);
  }
  void ShutdownWrite() override { base_->ShutdownWrite(); }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<Transport> base_;
  std::atomic<int>* timeouts_;
};

// Serves `server_end` (wrapped in a timeout counter), leaves the handshaken
// client idle for 300 ms, then drains: the session must be woken by the
// drain's Close, with no read ever timing out, and the drain must not wait
// out a poll slice or the idle timeout.
void ExpectIdleSessionIsWokenByDrain(std::unique_ptr<Transport> server_end,
                                     std::unique_ptr<Transport> client_end) {
  auto provider = MakePaperProvider();
  DmxServer server(provider.get(), {});
  std::atomic<int> timeouts{0};
  PipeSession session(&server, std::make_unique<TimeoutCountingTransport>(
                                   std::move(server_end), &timeouts));
  auto client = DmxClient::Handshake(std::move(client_end), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  SystemRetryClock idle;
  idle.SleepMs(300);
  const auto start = std::chrono::steady_clock::now();
  Status drained = server.Drain();
  const auto drain_time = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  session.Join();

  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_LT(drain_time, std::chrono::seconds(1));
  DmxServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.frames_rejected, 0u);  // The wake-up is not a kill.
}

// --- wire codec ---

TEST(WireCodecTest, BodiesRoundTrip) {
  HelloBody hello;
  hello.tenant = "acme";
  auto hello2 = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(hello2.ok()) << hello2.status().ToString();
  EXPECT_EQ(hello2->version, kProtocolVersion);
  EXPECT_EQ(hello2->tenant, "acme");

  RequestBody request;
  request.request_id = 42;
  request.deadline_ms = 1'500;
  request.statement = "SELECT * FROM Customers";
  auto request2 = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(request2.ok()) << request2.status().ToString();
  EXPECT_EQ(request2->request_id, 42u);
  EXPECT_EQ(request2->deadline_ms, 1'500u);
  EXPECT_EQ(request2->statement, request.statement);

  DoneBody done;
  done.request_id = 7;
  done.SetStatus(ResourceExhausted() << "quota");
  done.retryable = true;
  done.retry_after_ms = 120;
  auto done2 = DecodeDone(EncodeDone(done));
  ASSERT_TRUE(done2.ok()) << done2.status().ToString();
  EXPECT_TRUE(done2->ToStatus().IsResourceExhausted());
  EXPECT_TRUE(done2->retryable);
  EXPECT_EQ(done2->retry_after_ms, 120u);
}

TEST(WireCodecTest, NestedSchemaAndTableValueRoundTrip) {
  auto inner = Schema::Make(
      {ColumnDef("item", DataType::kText), ColumnDef("qty", DataType::kLong)});
  auto outer = Schema::Make(
      {ColumnDef("id", DataType::kLong), ColumnDef("basket", inner)});

  SchemaBody body;
  body.request_id = 1;
  body.schema = outer;
  auto decoded = DecodeSchemaBody(EncodeSchemaBody(body));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->schema->num_columns(), 2u);
  EXPECT_EQ(decoded->schema->columns()[1].type, DataType::kTable);
  ASSERT_NE(decoded->schema->columns()[1].nested, nullptr);
  EXPECT_EQ(decoded->schema->columns()[1].nested->num_columns(), 2u);

  ChunkBody chunk;
  chunk.request_id = 1;
  chunk.rows.push_back(
      {Value::Long(1),
       Value::Table(NestedTable::Make(
           inner, {{Value::Text("milk"), Value::Long(2)}}))});
  auto chunk2 = DecodeChunk(EncodeChunk(chunk));
  ASSERT_TRUE(chunk2.ok()) << chunk2.status().ToString();
  ASSERT_EQ(chunk2->rows.size(), 1u);
  ASSERT_EQ(chunk2->rows[0].size(), 2u);
  EXPECT_TRUE(chunk2->rows[0][1].is_table());
}

// A TABLE column built without a nested schema goes out with an empty one;
// the decoded schema still equals the original.
TEST(WireCodecTest, TableColumnWithoutNestedSchemaRoundTrips) {
  auto outer = Schema::Make({ColumnDef("id", DataType::kLong),
                             ColumnDef("basket", DataType::kTable)});
  ASSERT_EQ(outer->columns()[1].nested, nullptr);

  SchemaBody body;
  body.request_id = 1;
  body.schema = outer;
  auto decoded = DecodeSchemaBody(EncodeSchemaBody(body));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->schema->Equals(*outer));
  EXPECT_TRUE(outer->Equals(*decoded->schema));
  // A nested column still tells the two apart.
  auto with_item = Schema::Make(
      {ColumnDef("id", DataType::kLong),
       ColumnDef("basket", Schema::Make({{"item", DataType::kText}}))});
  EXPECT_FALSE(with_item->Equals(*decoded->schema));
}

TEST(WireCodecTest, FrameReaderRejectsCorruptionAndHugeLengths) {
  // A flipped payload byte fails the CRC.
  {
    auto [a, b] = MakeLocalPipe();
    std::string frame = EncodeFrame(FrameType::kHello, EncodeHello({}));
    frame.back() ^= 0x1;
    ASSERT_TRUE(b->Write(frame, 1'000).ok());
    FrameReader reader(a.get());
    auto next = reader.Next(1'000);
    ASSERT_FALSE(next.ok());
    EXPECT_TRUE(next.status().IsCorruption()) << next.status().ToString();
  }
  // A hostile length word is rejected before any allocation.
  {
    auto [a, b] = MakeLocalPipe();
    std::string header(8, '\0');
    header[0] = '\xff';
    header[1] = '\xff';
    header[2] = '\xff';
    header[3] = '\x7f';
    ASSERT_TRUE(b->Write(header, 1'000).ok());
    FrameReader reader(a.get());
    auto next = reader.Next(1'000);
    ASSERT_FALSE(next.ok());
    EXPECT_TRUE(next.status().IsCorruption()) << next.status().ToString();
  }
  // EOF mid-frame (a torn frame) is corruption, not a clean close.
  {
    auto [a, b] = MakeLocalPipe();
    std::string frame = EncodeFrame(FrameType::kHello, EncodeHello({}));
    ASSERT_TRUE(b->Write(frame.substr(0, frame.size() - 1), 1'000).ok());
    b->ShutdownWrite();
    FrameReader reader(a.get());
    auto next = reader.Next(1'000);
    ASSERT_FALSE(next.ok());
    EXPECT_TRUE(next.status().IsCorruption()) << next.status().ToString();
  }
}

// --- single sessions over in-memory pipes ---

TEST(ServerPipeTest, HandshakeExecuteAndCleanClose) {
  auto provider = MakePaperProvider();
  DmxServer server(provider.get(), {});

  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  ClientOptions options;
  options.tenant = "acme";
  auto client = DmxClient::Handshake(std::move(client_end), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT((*client)->session_id(), 0u);

  auto ddl = (*client)->Execute(
      "CREATE MINING MODEL served (cid LONG KEY, gender TEXT DISCRETE "
      "PREDICT) USING Naive_Bayes");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();

  auto rows = (*client)->Execute("SELECT * FROM Customers");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 3u);
  EXPECT_GT(rows->num_columns(), 0u);

  (*client)->Close();
  session.Join();

  EXPECT_TRUE(provider->models()->HasModel("served"));
  DmxServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.statements_ok, 2u);
  EXPECT_EQ(stats.statements_failed, 0u);
}

// Schema rowsets and model content are tables of the one command pipe: a
// remote client reads every one, nested NODE_DISTRIBUTION tables included,
// exactly as an in-process session does.
TEST(ServerPipeTest, SystemTablesReadOverTheWire) {
  auto provider = MakePaperProvider();
  auto local = provider->Connect();
  for (const char* setup :
       {"CREATE MINING MODEL served ([Customer ID] LONG KEY, [Gender] TEXT "
        "DISCRETE PREDICT, [Hair Color] TEXT DISCRETE) USING Naive_Bayes",
        "INSERT INTO served SELECT [Customer ID], [Gender], [Hair Color] "
        "FROM Customers"}) {
    auto done = local->Execute(setup);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
  }
  DmxServer server(provider.get(), {});
  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));
  auto client = DmxClient::Handshake(std::move(client_end), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (const char* table :
       {"$system.DMSCHEMA_MINING_SERVICES",
        "$system.DMSCHEMA_MINING_SERVICE_PARAMETERS",
        "$system.DMSCHEMA_MINING_MODELS", "$system.DMSCHEMA_MINING_COLUMNS",
        "$system.DMSCHEMA_MINING_MODEL_CONTENT",
        "$system.DMSCHEMA_MINING_FUNCTIONS", "served.CONTENT"}) {
    const std::string text = std::string("SELECT * FROM ") + table;
    auto remote = (*client)->Execute(text);
    ASSERT_TRUE(remote.ok()) << text << ": " << remote.status().ToString();
    auto in_process = local->Execute(text);
    ASSERT_TRUE(in_process.ok()) << text;
    EXPECT_GT(remote->num_rows(), 0u) << text;
    EXPECT_TRUE(remote->schema()->Equals(*in_process->schema())) << text;
    EXPECT_EQ(remote->ToString(/*expand_nested=*/true),
              in_process->ToString(/*expand_nested=*/true))
        << text;
  }
  auto distributions = (*client)->Execute(
      "SELECT NODE_DISTRIBUTION FROM served.CONTENT "
      "WHERE NODE_TYPE <> 'Model'");
  ASSERT_TRUE(distributions.ok()) << distributions.status().ToString();
  ASSERT_GT(distributions->num_rows(), 0u);
  size_t nested_rows = 0;
  for (const Row& row : distributions->rows()) {
    ASSERT_TRUE(row[0].is_table());
    nested_rows += row[0].table_value()->num_rows();
  }
  EXPECT_GT(nested_rows, 0u);

  (*client)->Close();
  session.Join();
}

TEST(ServerPipeTest, GarbageBytesKillTheSessionWithAnError) {
  auto provider = MakePaperProvider();
  DmxServer server(provider.get(), {});

  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  ASSERT_TRUE(
      client_end->Write("this is not a frame, not even close!", 1'000).ok());
  FrameReader reader(client_end.get());
  auto reply = reader.Next(5'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->has_value());
  ASSERT_EQ((*reply)->type, FrameType::kDone);
  auto done = DecodeDone((*reply)->body);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->ToStatus().IsCorruption()) << done->ToStatus().ToString();
  EXPECT_FALSE(done->retryable);

  client_end->Close();
  session.Join();
  EXPECT_EQ(server.stats().frames_rejected, 1u);
  EXPECT_EQ(server.stats().sessions_closed, 1u);
}

TEST(ServerPipeTest, WrongVersionAndEarlyRequestAreRefusedTyped) {
  auto provider = MakePaperProvider();
  DmxServer server(provider.get(), {});

  {  // Unsupported protocol version.
    auto [server_end, client_end] = MakeLocalPipe();
    PipeSession session(&server, std::move(server_end));
    HelloBody hello;
    hello.version = 99;
    ASSERT_TRUE(client_end
                    ->Write(EncodeFrame(FrameType::kHello, EncodeHello(hello)),
                            1'000)
                    .ok());
    FrameReader reader(client_end.get());
    auto reply = reader.Next(5'000);
    ASSERT_TRUE(reply.ok() && reply->has_value());
    auto done = DecodeDone((*reply)->body);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done->ToStatus().IsNotSupported());
    client_end->Close();
  }
  {  // A Request before the handshake.
    auto [server_end, client_end] = MakeLocalPipe();
    PipeSession session(&server, std::move(server_end));
    RequestBody request;
    request.request_id = 1;
    request.statement = "SELECT * FROM Customers";
    ASSERT_TRUE(
        client_end
            ->Write(EncodeFrame(FrameType::kRequest, EncodeRequest(request)),
                    1'000)
            .ok());
    FrameReader reader(client_end.get());
    auto reply = reader.Next(5'000);
    ASSERT_TRUE(reply.ok() && reply->has_value());
    auto done = DecodeDone((*reply)->body);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->ToStatus().code(), StatusCode::kInvalidArgument);
    client_end->Close();
  }
  EXPECT_EQ(server.stats().frames_rejected, 2u);
}

TEST(ServerPipeTest, IdleSessionIsDropped) {
  auto provider = MakePaperProvider();
  ServerOptions options;
  options.idle_timeout_ms = 150;
  DmxServer server(provider.get(), options);

  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  auto client = DmxClient::Handshake(std::move(client_end), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Say nothing: the server drops the session at the idle timeout and the
  // session thread exits (Join would hang forever otherwise).
  session.Join();
  EXPECT_EQ(server.stats().sessions_closed, 1u);
}

TEST(ServerPipeTest, IdleSessionIsWokenByDrainNotPolled) {
  auto [server_end, client_end] = MakeLocalPipe();
  ExpectIdleSessionIsWokenByDrain(std::move(server_end),
                                  std::move(client_end));
}

// The same over TCP: the drain's Close is a shutdown() that wakes the
// session's blocked poll.
TEST(ServerDrainTest, IdleTcpSessionIsWokenByDrainNotPolled) {
  auto listener = TcpListener::Listen("", 0);
  if (!listener.ok()) {
    GTEST_SKIP() << "cannot bind a TCP socket here: "
                 << listener.status().ToString();
  }
  auto client_end = ConnectTcp("127.0.0.1", (*listener)->port(), 5'000);
  ASSERT_TRUE(client_end.ok()) << client_end.status().ToString();
  auto server_end = (*listener)->Accept();
  ASSERT_TRUE(server_end.ok()) << server_end.status().ToString();
  ExpectIdleSessionIsWokenByDrain(std::move(*server_end),
                                  std::move(*client_end));
}

TEST(ServerPipeTest, StalledReaderTripsTheWriteTimeout) {
  auto provider = MakePaperProvider();
  ServerOptions options;
  options.write_timeout_ms = 150;
  DmxServer server(provider.get(), options);

  // A 16-byte pipe: any response frame larger than that blocks the server
  // until the client drains — and this client never does.
  auto [server_end, client_end] = MakeLocalPipe(/*capacity=*/16);
  PipeSession session(&server, std::move(server_end));

  FrameReader reader(client_end.get());
  ASSERT_TRUE(
      client_end->Write(EncodeFrame(FrameType::kHello, EncodeHello({})), 1'000)
          .ok());
  auto ack = reader.Next(5'000);
  ASSERT_TRUE(ack.ok() && ack->has_value());
  ASSERT_EQ((*ack)->type, FrameType::kHelloAck);

  RequestBody request;
  request.request_id = 1;
  request.statement = "SELECT * FROM Customers";
  ASSERT_TRUE(
      client_end
          ->Write(EncodeFrame(FrameType::kRequest, EncodeRequest(request)),
                  1'000)
          .ok());
  // Read nothing. The server's response write stalls, times out, and the
  // session ends instead of buffering without bound.
  session.Join();
  EXPECT_EQ(server.stats().sessions_closed, 1u);
  client_end->Close();
}

TEST(ServerPipeTest, DeadlineBoundsResponseStreaming) {
  auto provider = MakePaperProvider();
  ServerOptions options;
  options.write_timeout_ms = 10'000;  // Generous: the deadline must bind.
  DmxServer server(provider.get(), options);

  auto [server_end, client_end] = MakeLocalPipe(/*capacity=*/16);
  PipeSession session(&server, std::move(server_end));

  FrameReader reader(client_end.get());
  ASSERT_TRUE(
      client_end->Write(EncodeFrame(FrameType::kHello, EncodeHello({})), 1'000)
          .ok());
  auto ack = reader.Next(5'000);
  ASSERT_TRUE(ack.ok() && ack->has_value());

  RequestBody request;
  request.request_id = 1;
  request.deadline_ms = 200;  // One number covers execution AND streaming.
  request.statement = "SELECT * FROM Customers";
  ASSERT_TRUE(
      client_end
          ->Write(EncodeFrame(FrameType::kRequest, EncodeRequest(request)),
                  1'000)
          .ok());
  // A stalled reader against a 10 s write timeout: only the request
  // deadline can end this session promptly. Join hangs (and the test times
  // out) if deadline propagation into the write path is broken.
  session.Join();
  EXPECT_EQ(server.stats().sessions_closed, 1u);
  client_end->Close();
}

TEST(ServerPipeTest, SendBudgetExhaustionEndsTheSession) {
  auto provider = MakePaperProvider();
  ServerOptions options;
  options.max_session_send_bytes = 32;  // Less than HelloAck + Schema.
  DmxServer server(provider.get(), options);

  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  auto client = DmxClient::Handshake(std::move(client_end), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Execute("SELECT * FROM Customers");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("send budget exhausted"),
            std::string::npos)
      << result.status().ToString();
  // The budget rejection is not a licence to retry: the statement ran.
  EXPECT_EQ((*client)->last_attempts(), 1);
  session.Join();
  EXPECT_EQ(server.stats().sessions_closed, 1u);
}

// --- the fault-schedule sweep ---

// N concurrent sessions, each with its own fault: the server must survive
// every schedule without crashing, leak no session, and the catalog must
// contain every statement it acked (acked ⊆ applied — the acked prefix).
TEST(ServerFaultTest, ConcurrentSessionsSurviveAFaultSchedule) {
  auto provider = MakePaperProvider();
  ServerOptions options;
  options.idle_timeout_ms = 400;  // Bounds the stalled-read sessions.
  options.write_timeout_ms = 400;
  DmxServer server(provider.get(), options);

  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<PipeSession>> sessions;
  std::vector<std::thread> clients;
  std::atomic<int> clean_ok{0};
  std::vector<int> acked(kSessions, 0);

  for (int i = 0; i < kSessions; ++i) {
    auto [server_end, client_end] = MakeLocalPipe();
    TransportFault fault = TransportFault::kTornWrite;
    bool faulted = true;
    switch (i % 4) {
      case 0:
        faulted = false;  // Clean session: DDL + SELECT must succeed.
        break;
      case 1:
        fault = TransportFault::kDisconnectRead;  // EOF before Hello.
        break;
      case 2:
        fault = TransportFault::kShortRead;  // 1-byte reads: framing holds.
        faulted = false;  // Fault armed, but the session must still WORK.
        break;
      case 3:
        fault = TransportFault::kStallRead;  // Dead air: idle timeout.
        break;
    }
    std::unique_ptr<Transport> serve = std::move(server_end);
    if (i % 4 != 0) {
      auto wrapped = std::make_unique<FaultInjectionTransport>(std::move(serve));
      wrapped->ArmFault(fault, /*fail_at=*/0);
      serve = std::move(wrapped);
    }
    sessions.push_back(
        std::make_unique<PipeSession>(&server, std::move(serve)));

    clients.emplace_back([&, i, faulted,
                          end = std::move(client_end)]() mutable {
      ClientOptions copts;
      copts.io_timeout_ms = 5'000;
      copts.retry.max_attempts = 1;
      auto client = DmxClient::Handshake(std::move(end), copts);
      if (!client.ok()) {
        EXPECT_TRUE(faulted) << client.status().ToString();
        return;
      }
      auto ddl = (*client)->Execute(
          "CREATE MINING MODEL sweep_" + std::to_string(i) +
          " (cid LONG KEY, gender TEXT DISCRETE PREDICT) USING Naive_Bayes");
      if (ddl.ok()) acked[i] = 1;
      auto rows = (*client)->Execute("SELECT * FROM Customers");
      if (!faulted) {
        ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_EQ(rows->num_rows(), 3u);
        clean_ok.fetch_add(1);
      }
      (*client)->Close();
    });
  }

  for (auto& client : clients) client.join();
  for (auto& session : sessions) session->Join();

  // Half the schedule ran clean (i % 4 in {0, 2}) and must have succeeded.
  EXPECT_EQ(clean_ok.load(), kSessions / 2);
  // No leaked sessions, no crash, and every acked DDL is in the catalog.
  DmxServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.sessions_closed, static_cast<uint64_t>(kSessions));
  for (int i = 0; i < kSessions; ++i) {
    if (acked[i]) {
      EXPECT_TRUE(provider->models()->HasModel("sweep_" + std::to_string(i)))
          << "acked statement missing from catalog (session " << i << ")";
    }
  }
}

// A mid-statement disconnect (client vanishes while the response streams)
// ends that session without touching its neighbours.
TEST(ServerFaultTest, MidStatementDisconnectEndsOnlyThatSession) {
  auto provider = MakePaperProvider();
  ServerOptions options;
  options.write_timeout_ms = 500;
  DmxServer server(provider.get(), options);

  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  FrameReader reader(client_end.get());
  ASSERT_TRUE(
      client_end->Write(EncodeFrame(FrameType::kHello, EncodeHello({})), 1'000)
          .ok());
  auto ack = reader.Next(5'000);
  ASSERT_TRUE(ack.ok() && ack->has_value());
  RequestBody request;
  request.request_id = 1;
  request.statement = "SELECT * FROM Customers";
  ASSERT_TRUE(
      client_end
          ->Write(EncodeFrame(FrameType::kRequest, EncodeRequest(request)),
                  1'000)
          .ok());
  client_end->Close();  // Vanish mid-statement.
  session.Join();
  EXPECT_EQ(server.stats().sessions_closed, 1u);

  // The server is still perfectly serviceable for the next session.
  auto [server_end2, client_end2] = MakeLocalPipe();
  PipeSession session2(&server, std::move(server_end2));
  auto client = DmxClient::Handshake(std::move(client_end2), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto rows = (*client)->Execute("SELECT * FROM Customers");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 3u);
  (*client)->Close();
  session2.Join();
  EXPECT_EQ(server.stats().sessions_closed, 2u);
}

// --- client retry / backoff ---

TEST(ClientRetryTest, RetriesAdmissionRejectionWithExponentialBackoff) {
  auto provider = MakePaperProvider();
  provider->SetAdmissionLimits(/*max_active=*/8, /*max_queued=*/8);
  provider->SetTenantAdmissionLimits(/*max_active=*/1, /*max_queued=*/0);
  // Saturate tenant "acme" directly so every wire attempt is rejected
  // deterministically (no racing statement required).
  ASSERT_TRUE(provider->admission()->Admit(nullptr, "acme").ok());

  DmxServer server(provider.get(), {});
  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  RecordingClock clock;
  ClientOptions options;
  options.tenant = "acme";
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 50;
  auto client = DmxClient::Handshake(std::move(client_end), options, &clock);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto result = (*client)->Execute("SELECT * FROM Customers");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("tenant \"acme\" over quota"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ((*client)->last_attempts(), 3);

  // Two sleeps between three attempts, exponential with jitter: the n-th
  // backoff is drawn from [base/2, base] for base = 50 * 2^n.
  ASSERT_EQ(clock.sleeps().size(), 2u);
  EXPECT_GE(clock.sleeps()[0], 25);
  EXPECT_LE(clock.sleeps()[0], 50);
  EXPECT_GE(clock.sleeps()[1], 50);
  EXPECT_LE(clock.sleeps()[1], 100);

  // Quota released: the same session immediately succeeds, first try.
  provider->admission()->Release("acme");
  auto rows = (*client)->Execute("SELECT * FROM Customers");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 3u);
  EXPECT_EQ((*client)->last_attempts(), 1);

  (*client)->Close();
  session.Join();
}

TEST(ClientRetryTest, RetriesDrainRefusalAndRespectsRetryAfter) {
  auto provider = MakePaperProvider();
  ServerOptions soptions;
  soptions.drain_grace_ms = 40;  // Becomes the refusal's retry-after hint.
  DmxServer server(provider.get(), soptions);

  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  RecordingClock clock;
  ClientOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 5;  // Far below the hint: it must floor.
  auto client = DmxClient::Handshake(std::move(client_end), options, &clock);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  server.RequestDrain();
  auto result = (*client)->Execute("SELECT * FROM Customers");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  // At least one drain refusal was received and retried; its backoff was
  // floored at the server's retry-after hint.
  EXPECT_GE((*client)->last_attempts(), 2);
  ASSERT_GE(clock.sleeps().size(), 1u);
  EXPECT_GE(clock.sleeps()[0], 40);

  (*client)->Close();
  session.Join();
}

// A hostile/buggy server that marks a Done retryable AFTER streaming part
// of a response must not trick the client into re-running the statement.
TEST(ClientRetryTest, NeverRetriesAfterConsumingResponseFrames) {
  auto [server_end, client_end] = MakeLocalPipe();

  std::thread fake_server([end = std::move(server_end)]() mutable {
    FrameReader reader(end.get());
    auto hello = reader.Next(5'000);
    ASSERT_TRUE(hello.ok() && hello->has_value());
    HelloAckBody ack;
    ack.session_id = 99;
    ASSERT_TRUE(
        end->Write(EncodeFrame(FrameType::kHelloAck, EncodeHelloAck(ack)),
                   1'000)
            .ok());
    auto request = reader.Next(5'000);
    ASSERT_TRUE(request.ok() && request->has_value());
    auto body = DecodeRequest((*request)->body);
    ASSERT_TRUE(body.ok());

    SchemaBody schema;
    schema.request_id = body->request_id;
    schema.schema = Schema::Make({ColumnDef("x", DataType::kLong)});
    ASSERT_TRUE(
        end->Write(EncodeFrame(FrameType::kSchema, EncodeSchemaBody(schema)),
                   1'000)
            .ok());
    DoneBody done;
    done.request_id = body->request_id;
    done.SetStatus(Unavailable() << "lost my backend mid-stream");
    done.retryable = true;  // A lie: the response already started.
    ASSERT_TRUE(end->Write(EncodeFrame(FrameType::kDone, EncodeDone(done)),
                           1'000)
                    .ok());
    end->Close();
  });

  RecordingClock clock;
  ClientOptions options;
  options.retry.max_attempts = 4;
  auto client = DmxClient::Handshake(std::move(client_end), options, &clock);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Execute("SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_EQ((*client)->last_attempts(), 1);  // The latch held: no retry.
  EXPECT_TRUE(clock.sleeps().empty());
  fake_server.join();
}

// --- graceful drain ---

TEST(ServerDrainTest, DrainCancelsAStatementQueuedInAdmission) {
  auto provider = MakePaperProvider();
  provider->SetAdmissionLimits(/*max_active=*/1, /*max_queued=*/1);
  // Hold the only slot so the wire statement parks in the admission queue.
  ASSERT_TRUE(provider->admission()->Admit(nullptr).ok());

  ServerOptions options;
  options.drain_grace_ms = 50;
  DmxServer server(provider.get(), options);
  auto [server_end, client_end] = MakeLocalPipe();
  PipeSession session(&server, std::move(server_end));

  ClientOptions coptions;
  coptions.retry.max_attempts = 1;
  auto client = DmxClient::Handshake(std::move(client_end), coptions);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<Rowset> result = Internal() << "not run";
  std::thread executing(
      [&] { result = (*client)->Execute("SELECT * FROM Customers"); });
  // Let the statement reach the admission queue, then drain: past the grace
  // period the server cancels it through the session's CancelToken.
  SystemRetryClock wait;
  wait.SleepMs(150);
  Status drained = server.Drain();
  EXPECT_TRUE(drained.ok()) << drained.ToString();

  executing.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_NE(
      result.status().ToString().find("waiting for statement admission"),
      std::string::npos)
      << result.status().ToString();

  (*client)->Close();
  session.Join();
  provider->admission()->Release();
  DmxServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
}

// A drain during a multi-chunk response to a slow reader never cuts the
// response off: the client sees every row or a well-formed kCancelled Done
// (the grace ran out and the statement's token fired), then EOF.
TEST(ServerDrainTest, DrainDuringSlowStreamingEndsWithADone) {
  constexpr int kRows = 200;
  Provider provider;
  datagen::WarehouseConfig warehouse;
  warehouse.num_customers = kRows;
  ASSERT_TRUE(
      datagen::PopulateWarehouse(provider.database(), warehouse).ok());
  ServerOptions options;
  options.chunk_rows = 1;
  options.drain_grace_ms = 50;
  DmxServer server(&provider, options);
  auto [server_end, client_end] = MakeLocalPipe(/*capacity=*/256);
  PipeSession session(&server, std::move(server_end));

  FrameReader reader(client_end.get());
  ASSERT_TRUE(
      client_end->Write(EncodeFrame(FrameType::kHello, EncodeHello({})), 1'000)
          .ok());
  auto ack = reader.Next(5'000);
  ASSERT_TRUE(ack.ok() && ack->has_value());
  RequestBody request;
  request.request_id = 1;
  request.statement = "SELECT * FROM Customers";
  ASSERT_TRUE(
      client_end
          ->Write(EncodeFrame(FrameType::kRequest, EncodeRequest(request)),
                  1'000)
          .ok());

  auto first = reader.Next(5'000);
  ASSERT_TRUE(first.ok() && first->has_value());
  ASSERT_EQ((*first)->type, FrameType::kSchema);
  Status drained = Internal() << "not run";
  std::thread draining([&] { drained = server.Drain(); });

  SystemRetryClock slow;
  size_t rows = 0;
  std::optional<DoneBody> done;
  while (!done.has_value()) {
    slow.SleepMs(5);
    auto next = reader.Next(5'000);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next->has_value()) << "EOF after " << rows
                                   << " rows, before the response's Done";
    if ((*next)->type == FrameType::kChunk) {
      auto chunk = DecodeChunk((*next)->body);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      rows += chunk->rows.size();
      continue;
    }
    ASSERT_EQ((*next)->type, FrameType::kDone);
    auto body = DecodeDone((*next)->body);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    done = std::move(*body);
  }
  if (done->ToStatus().ok()) {
    EXPECT_EQ(rows, static_cast<size_t>(kRows));
  } else {
    EXPECT_TRUE(done->ToStatus().IsCancelled()) << done->ToStatus().ToString();
    EXPECT_LT(rows, static_cast<size_t>(kRows));
  }
  auto eof = reader.Next(5'000);
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_FALSE(eof->has_value());

  draining.join();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  client_end->Close();
  session.Join();
  DmxServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
}

// A request sent once the drain has begun is either refused as retryable
// kUnavailable or finds its session closed; it never executes.
TEST(ServerDrainTest, RequestRacingDrainNeverExecutes) {
  for (int round = 0; round < 10; ++round) {
    auto provider = MakePaperProvider();
    DmxServer server(provider.get(), {});
    auto [server_end, client_end] = MakeLocalPipe();
    PipeSession session(&server, std::move(server_end));
    ClientOptions options;
    options.retry.max_attempts = 1;
    auto client = DmxClient::Handshake(std::move(client_end), options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    Status drained = Internal() << "not run";
    std::thread draining([&] { drained = server.Drain(); });
    while (!server.draining()) std::this_thread::yield();
    auto result = (*client)->Execute(
        "CREATE MINING MODEL raced (cid LONG KEY, gender TEXT DISCRETE "
        "PREDICT) USING Naive_Bayes");
    draining.join();

    ASSERT_FALSE(result.ok()) << "round " << round;
    EXPECT_TRUE(result.status().IsUnavailable())
        << "round " << round << ": " << result.status().ToString();
    EXPECT_FALSE(provider->models()->HasModel("raced")) << "round " << round;
    EXPECT_TRUE(drained.ok()) << drained.ToString();
    (*client)->Close();
    session.Join();
    DmxServer::Stats stats = server.stats();
    EXPECT_EQ(stats.statements_ok + stats.statements_failed, 0u);
    EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
  }
}

// The full state machine over real TCP: serve, ack statements, SIGTERM-
// style drain, then reopen the store and prove the drained state is the
// recovered state — zero quarantines, catalog == acked prefix.
TEST(ServerDrainTest, TcpDrainCheckpointsAndReopensClean) {
  std::string dir = ::testing::TempDir() + "/server_drain_store";
  // Test runs reuse the name; start from an empty directory.
  Env* env = Env::Default();
  for (const std::string& sub : {dir + "/quarantine", dir}) {
    auto names = env->ListDir(sub);
    if (!names.ok()) continue;
    for (const std::string& f : *names) (void)env->DeleteFile(sub + "/" + f);
  }

  uint64_t acked_models = 0;
  {
    Provider provider;
    ASSERT_TRUE(datagen::LoadPaperExample(provider.database()).ok());
    ASSERT_TRUE(provider.OpenStore(dir).ok());

    ServerOptions options;
    DmxServer server(&provider, options);
    Status started = server.Start();
    if (!started.ok()) {
      GTEST_SKIP() << "cannot bind a TCP socket here: "
                   << started.ToString();
    }

    auto client = DmxClient::Connect("127.0.0.1", server.port(), {});
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < 3; ++i) {
      auto ddl = (*client)->Execute(
          "CREATE MINING MODEL drained_" + std::to_string(i) +
          " (cid LONG KEY, gender TEXT DISCRETE PREDICT) USING Naive_Bayes");
      ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
      ++acked_models;  // Acked over the wire: must survive the drain.
    }
    auto rows = (*client)->Execute("SELECT * FROM Customers");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->num_rows(), 3u);
    (*client)->Close();

    Status drained = server.Drain();
    EXPECT_TRUE(drained.ok()) << drained.ToString();
    DmxServer::Stats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
    EXPECT_EQ(stats.statements_ok, acked_models + 1);

    // Draining is sticky: a late connection gets no service. (The listener
    // is closed, so the connect itself or its handshake fails.)
    auto late = DmxClient::Connect("127.0.0.1", server.port(), {});
    EXPECT_FALSE(late.ok());
  }

  // Reopen: the acked prefix is exactly what recovers, with nothing
  // quarantined and the store fully writable.
  Provider reopened;
  ASSERT_TRUE(datagen::LoadPaperExample(reopened.database()).ok());
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  EXPECT_EQ(reopened.store()->recovery_stats().shards_quarantined, 0u);
  EXPECT_TRUE(reopened.DegradedModels().empty());
  EXPECT_FALSE(reopened.StoreReadOnly());
  for (uint64_t i = 0; i < acked_models; ++i) {
    EXPECT_TRUE(reopened.models()->HasModel("drained_" + std::to_string(i)))
        << "acked statement lost across drain + reopen (model " << i << ")";
  }
}

}  // namespace
}  // namespace dmx::server
