// dmxsh — an interactive shell for the OpenDMX provider.
//
// Reads DMX / SQL statements (terminated by ';') from stdin and prints the
// resulting rowsets, the way a consumer talks to the provider in Figure 1.
//
//   dmxsh [--warehouse N] [--paper-example] [--store DIR] [--timeout MS]
//         [--quiet] [--serve [HOST:]PORT | --connect HOST:PORT]
//
//   --warehouse N     preload the synthetic customer warehouse (N customers)
//   --paper-example   preload the paper's Table 1 micro-warehouse
//   --store DIR       durable catalog store: recover DIR's snapshot + WAL on
//                     startup, journal every DDL/DML statement, checkpoint on
//                     clean exit — a killed shell reopens with all models
//                     trained
//   --timeout MS      arm a wall-clock deadline of MS milliseconds on every
//                     statement; a statement that overruns it fails with
//                     "Deadline exceeded" and leaves the catalogs unchanged
//   --quiet           suppress the banner and prompts (for piped scripts)
//
// Serving mode (README "Serving"):
//   --serve [HOST:]PORT   run the framed network front end over this
//                     provider (PORT 0 = ephemeral, printed on startup).
//                     SIGTERM/SIGINT trigger graceful drain: stop
//                     accepting, finish or cancel in-flight statements,
//                     checkpoint the store, exit
//   --admission A,Q   global admission cap: A active statements, Q queued
//   --tenant-quota A,Q  per-tenant quota layered under the global cap
//
// Client mode:
//   --connect HOST:PORT   talk to a dmxsh --serve instance instead of an
//                     in-process provider; statements and rowsets travel
//                     the framed wire protocol with bounded retry
//   --tenant NAME     tenant id for the session handshake
//
// Shell commands (no ';'):
//   \tables   \checkpoint   \store-status   \repair <target>
//   \timeout <ms>   \help   \quit
//
// The provider describes itself through ordinary statements over the
// schema rowsets, e.g. SELECT * FROM $system.DMSCHEMA_MINING_MODELS;

#include <signal.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "core/dmx_analyzer.h"
#include "core/provider.h"
#include "datagen/warehouse.h"
#include "server/client.h"
#include "server/server.h"

namespace {

void PrintHelp() {
  std::cout <<
      "statements end with ';' and run through the provider, e.g.\n"
      "  CREATE MINING MODEL m (...) USING Naive_Bayes;\n"
      "  INSERT INTO m SHAPE {...} APPEND ({...} RELATE a TO b) AS t;\n"
      "  SELECT ... FROM m NATURAL PREDICTION JOIN (...) AS t;\n"
      "  SELECT * FROM m.CONTENT WHERE NODE_TYPE = 'Leaf';\n"
      "  ANALYZE <statement>;   lint a statement without executing it\n"
      "the provider describes itself in read-only tables (schema rowsets)\n"
      "that SELECT reads like any other, e.g. SELECT * FROM <table>;\n"
      "  $system.DMSCHEMA_MINING_SERVICES            mining services\n"
      "  $system.DMSCHEMA_MINING_SERVICE_PARAMETERS  their parameters\n"
      "  $system.DMSCHEMA_MINING_MODELS              mining models\n"
      "  $system.DMSCHEMA_MINING_COLUMNS             model columns\n"
      "  $system.DMSCHEMA_MINING_MODEL_CONTENT       every model's content\n"
      "  $system.DMSCHEMA_MINING_FUNCTIONS           prediction UDFs\n"
      "shell commands:\n"
      "  \\tables      base tables\n"
      "  \\checkpoint  snapshot the catalog and rotate the WAL (--store)\n"
      "  \\store-status  shards, epochs, degraded models and quarantine\n"
      "               reasons of the attached store (--store)\n"
      "  \\repair t    re-adopt quarantined shard t (a shard id such as\n"
      "               'catalog' or 'm000002', or a degraded model's name)\n"
      "  \\timeout ms  deadline per statement in milliseconds (0 disarms)\n"
      "  \\help        this text\n"
      "  \\quit        exit\n";
}

// Errors render with their full context chain, innermost cause first:
//   IO error: write 'wal-000001.log': No space left on device
//     while journaling statement
void PrintStatus(const dmx::Status& status) {
  std::cout << dmx::StatusCodeToString(status.code());
  if (!status.message().empty()) std::cout << ": " << status.message();
  std::cout << "\n";
  for (const std::string& frame : status.context()) {
    std::cout << "  while " << frame << "\n";
  }
}

void PrintRowset(const dmx::Rowset& rowset) {
  if (rowset.num_columns() == 0) {
    std::cout << "OK\n";
    return;
  }
  std::cout << rowset.ToString(/*expand_nested=*/true)
            << "(" << rowset.num_rows() << " row"
            << (rowset.num_rows() == 1 ? "" : "s") << ")\n";
}

// ANALYZE <statement>: runs the semantic analyzer on the statement text and
// prints the diagnostic report instead of executing it.
bool TryAnalyzeCommand(dmx::Connection* conn, const std::string& command) {
  static const char kKeyword[] = "ANALYZE";
  const size_t len = sizeof(kKeyword) - 1;
  if (command.size() <= len ||
      !dmx::EqualsCi(std::string_view(command).substr(0, len), kKeyword) ||
      std::isspace(static_cast<unsigned char>(command[len])) == 0) {
    return false;
  }
  std::string statement(dmx::Trim(command.substr(len)));
  while (!statement.empty() && statement.back() == ';') {
    statement.pop_back();
  }
  dmx::AnalyzerContext context;
  context.catalog = conn->provider()->models();
  context.services = conn->provider()->services();
  context.database = conn->provider()->database();
  std::cout << dmx::DmxAnalyzer(context).AnalyzeText(statement).ToString(
      statement);
  return true;
}

bool HandleShellCommand(dmx::Connection* conn, const std::string& line) {
  if (line == "\\checkpoint") {
    auto status = conn->provider()->Checkpoint();
    if (status.ok()) {
      std::cout << "checkpoint written (snapshot "
                << conn->provider()->store()->snapshot_seq() << ")\n";
    } else {
      PrintStatus(status);
    }
  } else if (line == "\\store-status") {
    dmx::store::DurableStore* store = conn->provider()->store();
    if (store == nullptr) {
      std::cout << "no store attached (start dmxsh with --store DIR)\n";
      return true;
    }
    dmx::store::StoreStatus status = store->GetStatus();
    std::cout << "store '" << store->dir() << "': snapshot "
              << status.snapshot_seq << ", " << status.shards.size()
              << " shard" << (status.shards.size() == 1 ? "" : "s");
    if (conn->provider()->StoreReadOnly()) {
      std::cout << " [READ-ONLY: catalog shard quarantined]";
    }
    std::cout << "\n";
    for (const dmx::store::ShardStatus& shard : status.shards) {
      std::cout << "  " << shard.id;
      if (!shard.model.empty()) std::cout << " (model '" << shard.model << "')";
      std::cout << ": epoch " << shard.epoch;
      if (shard.quarantined) {
        std::cout << " QUARANTINED — " << shard.reason;
      } else {
        std::cout << ", " << shard.records << " record"
                  << (shard.records == 1 ? "" : "s");
      }
      std::cout << "\n";
    }
    for (const auto& [model, reason] : conn->provider()->DegradedModels()) {
      std::cout << "  degraded model '" << model << "': " << reason << "\n";
    }
  } else if (line.rfind("\\repair ", 0) == 0) {
    std::string target(dmx::Trim(line.substr(8)));
    if (target.empty()) {
      std::cout << "\\repair expects a shard id or degraded model name\n";
      return true;
    }
    dmx::store::RepairStats stats;
    auto status = conn->provider()->Repair(target, &stats);
    if (status.ok()) {
      std::cout << "shard repaired: " << stats.records_reapplied
                << " records re-applied, " << stats.records_skipped
                << " superseded, " << stats.bytes_dropped
                << " bytes dropped past the valid prefix\n";
    } else {
      PrintStatus(status);
    }
  } else if (line == "\\tables") {
    for (const std::string& name :
         conn->provider()->database()->ListTables()) {
      std::cout << "  " << name << "\n";
    }
  } else if (line.rfind("\\timeout ", 0) == 0) {
    long ms = std::atol(line.c_str() + 9);
    if (ms < 0) {
      std::cout << "\\timeout expects a millisecond count >= 0\n";
    } else {
      dmx::ExecLimits limits = conn->limits();
      limits.deadline_ms = ms;
      conn->set_limits(limits);
      if (ms == 0) {
        std::cout << "statement deadline disarmed\n";
      } else {
        std::cout << "statement deadline set to " << ms << " ms\n";
      }
    }
  } else if (line == "\\help") {
    PrintHelp();
  } else if (line == "\\quit" || line == "\\q") {
    return false;
  } else {
    std::cout << "unknown shell command (try \\help)\n";
  }
  return true;
}

// "HOST:PORT" or bare "PORT" (host defaults to 127.0.0.1). False on junk.
bool ParseHostPort(const std::string& spec, std::string* host, int* port) {
  size_t colon = spec.rfind(':');
  std::string port_str;
  if (colon == std::string::npos) {
    host->clear();
    port_str = spec;
  } else {
    *host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  if (port_str.empty()) return false;
  for (char c : port_str) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  long value = std::atol(port_str.c_str());
  if (value < 0 || value > 65535) return false;
  *port = static_cast<int>(value);
  return true;
}

// "A,Q" pair for admission limits.
bool ParseLimitPair(const char* spec, unsigned* active, unsigned* queued) {
  return std::sscanf(spec, "%u,%u", active, queued) == 2;
}

// --connect: the REPL talks to a remote dmxsh --serve over the framed
// protocol instead of an in-process provider.
int RunClient(const std::string& host, int port, const std::string& tenant,
              long timeout_ms, bool quiet) {
  dmx::server::ClientOptions options;
  options.tenant = tenant;
  auto client =
      dmx::server::DmxClient::Connect(host.empty() ? "127.0.0.1" : host,
                                      static_cast<uint16_t>(port), options);
  if (!client.ok()) {
    PrintStatus(client.status());
    return 1;
  }
  if (!quiet) {
    std::cout << "connected to " << (host.empty() ? "127.0.0.1" : host) << ":"
              << port << " (session " << (*client)->session_id();
    if (!tenant.empty()) std::cout << ", tenant '" << tenant << "'";
    std::cout << ")\ntype \\quit to exit\n";
  }
  std::string buffer;
  std::string line;
  while (true) {
    if (!quiet) std::cout << (buffer.empty() ? "dmx> " : "...> ") << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(dmx::Trim(line));
    if (buffer.empty() && !trimmed.empty() && trimmed[0] == '\\') {
      if (trimmed == "\\quit" || trimmed == "\\q") break;
      std::cout << "shell commands are local-only over a network session "
                   "(\\quit to exit)\n";
      continue;
    }
    buffer += line;
    buffer += '\n';
    if (trimmed.empty() || trimmed.back() != ';') continue;
    std::string command(dmx::Trim(buffer));
    buffer.clear();
    if (command == ";") continue;
    auto result = (*client)->Execute(
        command, timeout_ms > 0 ? static_cast<uint64_t>(timeout_ms) : 0);
    if (!result.ok()) {
      PrintStatus(result.status());
      if ((*client)->last_attempts() > 1) {
        std::cout << "  (" << (*client)->last_attempts() << " attempts, "
                  << (*client)->last_backoff_ms() << " ms backoff)\n";
      }
      continue;
    }
    PrintRowset(*result);
  }
  (*client)->Close();
  return 0;
}

// --serve: run the network front end until SIGTERM/SIGINT, then drain.
// The signal set is blocked in every thread (the mask is inherited), so
// the signal is consumed synchronously by sigwait — no async handler, no
// races with session threads.
int RunServer(dmx::Provider* provider, const std::string& host, int port,
              bool quiet) {
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  dmx::server::ServerOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  dmx::server::DmxServer server(provider, options);
  auto status = server.Start();
  if (!status.ok()) {
    PrintStatus(status);
    return 1;
  }
  // The port line prints even under --quiet: a supervisor using an
  // ephemeral port has no other way to learn it.
  std::cout << "serving on " << (host.empty() ? "127.0.0.1" : host) << ":"
            << server.port() << std::endl;
  if (!quiet) {
    std::cout << "SIGTERM/SIGINT drains gracefully (finish or cancel "
                 "in-flight statements, checkpoint, exit)\n";
  }
  int signal = 0;
  sigwait(&signals, &signal);
  if (!quiet) {
    std::cout << "signal " << signal << ": draining...\n";
  }
  auto drained = server.Drain();
  if (!drained.ok()) {
    PrintStatus(drained);
    return 1;
  }
  if (!quiet) {
    dmx::server::DmxServer::Stats stats = server.stats();
    std::cout << "drained: " << stats.sessions_opened << " sessions served, "
              << stats.statements_ok << " statements ok, "
              << stats.statements_failed << " failed\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  int warehouse = 0;
  bool paper_example = false;
  std::string store_dir;
  long timeout_ms = 0;
  bool serve = false;
  bool connect = false;
  std::string net_host;
  int net_port = 0;
  std::string tenant;
  unsigned admit_active = 0, admit_queued = 0;
  unsigned quota_active = 0, quota_queued = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--paper-example") == 0) {
      paper_example = true;
    } else if (std::strcmp(argv[i], "--warehouse") == 0 && i + 1 < argc) {
      warehouse = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      timeout_ms = std::atol(argv[++i]);
      if (timeout_ms < 0) {
        std::cerr << "--timeout expects a millisecond count >= 0\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve = true;
      if (!ParseHostPort(argv[++i], &net_host, &net_port)) {
        std::cerr << "--serve expects [HOST:]PORT\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = true;
      if (!ParseHostPort(argv[++i], &net_host, &net_port)) {
        std::cerr << "--connect expects [HOST:]PORT\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--tenant") == 0 && i + 1 < argc) {
      tenant = argv[++i];
    } else if (std::strcmp(argv[i], "--admission") == 0 && i + 1 < argc) {
      if (!ParseLimitPair(argv[++i], &admit_active, &admit_queued)) {
        std::cerr << "--admission expects ACTIVE,QUEUED\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--tenant-quota") == 0 && i + 1 < argc) {
      if (!ParseLimitPair(argv[++i], &quota_active, &quota_queued)) {
        std::cerr << "--tenant-quota expects ACTIVE,QUEUED\n";
        return 2;
      }
    } else {
      std::cerr << "usage: dmxsh [--warehouse N] [--paper-example] "
                   "[--store DIR] [--timeout MS] [--quiet]\n"
                   "             [--serve [HOST:]PORT [--admission A,Q] "
                   "[--tenant-quota A,Q]]\n"
                   "             [--connect HOST:PORT [--tenant NAME]]\n";
      return 2;
    }
  }
  if (serve && connect) {
    std::cerr << "--serve and --connect are mutually exclusive\n";
    return 2;
  }
  if (connect) {
    return RunClient(net_host, net_port, tenant, timeout_ms, quiet);
  }

  dmx::Provider provider;
  if (paper_example) {
    auto status = dmx::datagen::LoadPaperExample(provider.database());
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  } else if (warehouse > 0) {
    dmx::datagen::WarehouseConfig config;
    config.num_customers = warehouse;
    auto status = dmx::datagen::PopulateWarehouse(provider.database(), config);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  // The store is opened *after* any warehouse preload, so recovered state
  // (which is authoritative) replaces preloaded tables it also covers.
  if (!store_dir.empty()) {
    dmx::store::StoreOptions options;
    options.auto_checkpoint_interval = 64;
    auto status = provider.OpenStore(store_dir, options);
    if (!status.ok()) {
      PrintStatus(status);
      return 1;
    }
    if (!quiet) {
      const dmx::store::RecoveryStats& stats =
          provider.store()->recovery_stats();
      std::cout << "(store '" << store_dir << "' opened: snapshot "
                << stats.snapshot_seq << " with " << stats.snapshot_entries
                << " entries, " << stats.replayed_statements
                << " statements + " << stats.replayed_blobs
                << " model blobs replayed across " << stats.shards_recovered
                << " shards"
                << (stats.torn_tail_truncated ? ", torn WAL tail truncated"
                                              : "")
                << ")\n";
      if (stats.shards_quarantined > 0) {
        std::cout << "warning: " << stats.shards_quarantined
                  << " shard(s) failed recovery and were quarantined — run "
                     "\\store-status for details, \\repair to re-adopt\n";
      }
      for (const auto& [model, reason] : provider.DegradedModels()) {
        std::cout << "  degraded model '" << model << "': " << reason << "\n";
      }
      if (provider.StoreReadOnly()) {
        std::cout << "  store is READ-ONLY until its catalog shard is "
                     "repaired\n";
      }
    }
    // Preloaded tables exist only in memory — checkpoint at once so the
    // store is self-contained and a later `dmxsh --store` WITHOUT the
    // preload flags still recovers every journaled statement.
    if (paper_example || warehouse > 0) {
      auto status = provider.Checkpoint();
      if (!status.ok()) {
        PrintStatus(status.WithContext("checkpointing preloaded tables"));
        return 1;
      }
    }
  }
  if (serve) {
    if (admit_active > 0) {
      provider.SetAdmissionLimits(admit_active, admit_queued);
    }
    if (quota_active > 0) {
      provider.SetTenantAdmissionLimits(quota_active, quota_queued);
    }
    return RunServer(&provider, net_host, net_port, quiet);
  }

  auto conn = provider.Connect();
  if (timeout_ms > 0) {
    dmx::ExecLimits limits;
    limits.deadline_ms = timeout_ms;
    conn->set_limits(limits);
  }

  if (!quiet) {
    std::cout << "OpenDMX shell -- data mining as first-class SQL objects\n"
              << "type \\help for help, \\quit to exit\n";
    if (paper_example) {
      std::cout << "(paper Table 1 micro-warehouse loaded: Customers, Sales, "
                   "CarOwnership)\n";
    } else if (warehouse > 0) {
      std::cout << "(synthetic warehouse loaded: " << warehouse
                << " customers)\n";
    }
  }

  std::string buffer;
  std::string line;
  while (true) {
    if (!quiet) std::cout << (buffer.empty() ? "dmx> " : "...> ") << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(dmx::Trim(line));
    if (buffer.empty() && !trimmed.empty() && trimmed[0] == '\\') {
      if (!HandleShellCommand(conn.get(), trimmed)) break;
      continue;
    }
    buffer += line;
    buffer += '\n';
    // Execute once the statement terminator arrives.
    if (trimmed.empty() || trimmed.back() != ';') continue;
    std::string command(dmx::Trim(buffer));
    buffer.clear();
    if (command == ";") continue;
    if (TryAnalyzeCommand(conn.get(), command)) continue;
    auto result = conn->Execute(command);
    if (!result.ok()) {
      PrintStatus(result.status());
      continue;
    }
    PrintRowset(*result);
  }
  // Clean exit: checkpoint so the next open skips WAL replay. The WAL already
  // holds everything, so a failure is not data loss — but it is worth a
  // warning, since it usually means the store directory has gone bad.
  if (provider.store() != nullptr) {
    dmx::Status checkpoint = provider.Checkpoint();
    if (!checkpoint.ok()) {
      std::cerr << "warning: exit checkpoint failed (WAL remains "
                   "authoritative): "
                << checkpoint.ToString() << "\n";
    }
  }
  return 0;
}
