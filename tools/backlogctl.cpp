// backlogctl — command-line front end for Backlog volumes and services.
//
// Volume commands inspect one volume. Locally <dir> is a volume directory,
// opened standalone (outside any service); with --connect it is the name of
// a tenant the daemon hosts:
//
//   backlogctl info <dir>                  volume summary (CP, lines, runs)
//   backlogctl runs <dir>                  list run files with metadata
//   backlogctl query <dir> <block> [n]     masked owner query (the paper's
//                                          "tell me all the objects...")
//   backlogctl raw <dir> <block> [n]       unmasked joined records
//   backlogctl scan <dir>                  dump every joined record
//   backlogctl maintain <dir>              run database maintenance (§5.2)
//   backlogctl dump-run <dir> <file>       decode one run file's records
//
// Service commands act on a service root, a directory whose subdirectories
// are volumes:
//
//   backlogctl stress <root> <tenants> <ops> [shards] [--batch N]
//       replay synthetic traces into tenant-000.. through apply_batch in
//       N-op chunks (default 64) over at most 16 connections; throughput
//       and the stats table
//   backlogctl snap <root> <tenant> [line]
//       take and commit a snapshot of the tenant's line (default 0)
//   backlogctl clone <root> <src> <dst> [line [version]]
//       copy-on-write clone of src's snapshot (default: the latest of line
//       0) as the new tenant <dst>; prints the shared-file accounting
//   backlogctl destroy <root> <tenant> [shards]
//       delete the tenant's volume; files shared with clones survive
//   backlogctl migrate <root> <tenant> <target-shard> [shards]
//       live-migrate the tenant to another shard
//   backlogctl qos <root> <tenant> <ops-per-sec> <bytes-per-sec> [ops]
//       drive [ops] single-op updates, one at a time, under that TenantQos
//       (0 = unlimited); admission counters and effective throughput
//   backlogctl balance <root> <shards> [cycles]
//       pulse a synthetic load and run the balancer for [cycles] cycles
//   backlogctl stats <root> [shards] [--json]
//       the merged ServiceStats: per-tenant table or one JSON object
//   backlogctl cache [clear] <root> [shards] [--json]
//       shared block cache and per-volume result-cache counters; `clear`
//       drops every cached page and result first (no --json)
//   backlogctl metrics <root> [shards] [--prom|--json] [--watch N]
//       pulse a synthetic load, then print the metrics registry
//       (Prometheus by default); --watch N prints N windowed-rate lines
//   backlogctl trace <root> <tenants> <ops> [shards] [--sample N] [--slow-us N]
//       a stress-style run with per-op tracing on; the newest sampled spans
//       and the slow-op log
//
// One parser validates every command and one executor runs it, as client
// calls to a backlogd. With `--connect host:port [--wait-ms N]` that is a
// live daemon, and <root> is a placeholder (the daemon's root applies; for
// `migrate` the shard count only validates the target). Without it the
// command hosts <root> in-process exactly as backlogd would — same
// VolumeManager options (WAL on, so a mutation is durable when the command
// returns), same volume discovery, same endpoint, with [shards] shards —
// serves it on 127.0.0.1 for the length of the command, and stops. Reports
// are rendered by src/net/render.hpp in both modes, so they are
// byte-identical.
//
// Malformed invocations (wrong arity, non-numeric or out-of-range
// arguments) print usage and exit 2 before anything is opened or dialed;
// runtime failures exit 1.
//
// Note: opening a volume standalone re-establishes its manifest base (one
// metadata write). A standalone `maintain` on a volume whose runs are
// CoW-shared with clones is safe (hard links keep sharers intact) but
// leaves the service root's FILEREFS accounting stale until the next
// service start recounts it.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/backlog_db.hpp"
#include "fsim/multi_tenant.hpp"
#include "net/client.hpp"
#include "net/handlers.hpp"
#include "net/render.hpp"
#include "storage/env.hpp"
#include "util/parse.hpp"

using namespace backlog;
using util::parse_u64;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: backlogctl [--connect host:port [--wait-ms N]] <cmd> "
               "<dir|root> [args]\n"
               "  volume:  info|runs|scan|maintain <dir>\n"
               "           query|raw <dir> <block> [count]\n"
               "           dump-run <dir> <file>\n"
               "  service: stress <root> <tenants> <ops> [shards] "
               "[--batch N]\n"
               "           snap <root> <tenant> [line]\n"
               "           clone <root> <src> <dst> [line [version]]\n"
               "           destroy <root> <tenant> [shards]\n"
               "           migrate <root> <tenant> <target-shard> [shards]\n"
               "           qos <root> <tenant> <ops-per-sec> <bytes-per-sec> "
               "[ops]\n"
               "           balance <root> <shards> [cycles]\n"
               "           stats <root> [shards] [--json]\n"
               "           cache [clear] <root> [shards] [--json]\n"
               "           metrics <root> [shards] [--prom|--json] "
               "[--watch N]\n"
               "           trace <root> <tenants> <ops> [shards] "
               "[--sample N] [--slow-us N]\n"
               "  --connect runs against a live backlogd: volume commands "
               "take the tenant\n"
               "  name, <root> is a placeholder; --wait-ms retries refused "
               "connects for N ms.\n"
               "  Without it, service commands host <root> in-process for "
               "the command.\n");
  return 2;
}

/// One validated invocation (fields a command does not take keep their
/// defaults).
struct Cmd {
  std::string name;
  std::string target;  ///< <root>; for volume commands the <dir> or tenant
  std::string tenant;  ///< snap/clone(src)/destroy/migrate/qos
  std::string dst;     ///< clone
  std::string file;    ///< dump-run
  std::uint64_t shards = 1;
  bool shards_given = false;
  std::uint64_t tenants = 0, ops = 0, batch = 64;         // stress/trace/qos
  std::uint64_t line = 0, version = 0, to_shard = 0;      // snap/clone/migrate
  std::uint64_t ops_rate = 0, bytes_rate = 0;             // qos
  std::uint64_t cycles = 3, watch = 0;                    // balance/metrics
  std::uint64_t sample = 1, slow_us = 1000;               // trace
  std::uint64_t block = 0, count = 1;                     // query/raw
  bool json = false, clear = false;
};

bool is_volume_cmd(const std::string& name) {
  return name == "info" || name == "runs" || name == "scan" ||
         name == "maintain" || name == "query" || name == "raw" ||
         name == "dump-run";
}

/// The one parser: argv[1] is the command (after any --connect prefix).
/// False = usage error.
bool parse(int argc, char** argv, Cmd& c) {
  if (argc < 3) return false;
  int at = 1;
  c.name = argv[at++];
  if (c.name == "cache" && std::strcmp(argv[at], "clear") == 0) {
    c.clear = true;
    ++at;
  }
  if (at >= argc) return false;
  c.target = argv[at++];

  // Flags may sit anywhere after <root>; each at most once. A flag with
  // max == 0 is a switch, the others take a number in [min, max].
  struct Flag {
    const char* name;
    std::uint64_t* value;
    std::uint64_t min = 0, max = 0;
    bool seen = false;
  };
  std::uint64_t json = 0, prom = 0;
  std::vector<Flag> flags;
  if (c.name == "stress") {
    flags = {{"--batch", &c.batch, 1, 1 << 20}};
  } else if (c.name == "trace") {
    flags = {{"--sample", &c.sample, 1, 1u << 30},
             {"--slow-us", &c.slow_us, 1, UINT64_MAX}};
  } else if (c.name == "stats" || (c.name == "cache" && !c.clear)) {
    flags = {{"--json", &json}};
  } else if (c.name == "metrics") {
    flags = {{"--json", &json}, {"--prom", &prom},
             {"--watch", &c.watch, 1, 1 << 20}};
  }
  std::vector<const char*> pos;
  for (int i = at; i < argc; ++i) {
    const auto f =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& x) {
          return std::strcmp(x.name, argv[i]) == 0;
        });
    if (f == flags.end()) {
      pos.push_back(argv[i]);
      continue;
    }
    if (f->seen) return false;
    f->seen = true;
    if (f->max == 0) {
      *f->value = 1;
    } else if (++i == argc ||
               !parse_u64(argv[i], *f->value, f->min, f->max)) {
      return false;
    }
  }
  if (json && prom) return false;
  c.json = json != 0;

  const std::size_t n = pos.size();
  // Positional i parsed as a number in [lo, hi]; an absent one keeps its
  // default (callers check arity first).
  const auto num = [&](std::size_t i, std::uint64_t& out, std::uint64_t lo = 0,
                       std::uint64_t hi = UINT64_MAX) {
    return i >= n || parse_u64(pos[i], out, lo, hi);
  };
  const auto shards_at = [&](std::size_t i) {
    c.shards_given = i < n;
    return num(i, c.shards, 1, 1024);
  };
  if (n > 0) c.tenant = c.file = pos[0];
  if (n > 1) c.dst = pos[1];

  const std::string& m = c.name;
  if (m == "stress" || m == "trace") {
    c.shards = m == "stress" ? 4 : 2;
    return n >= 2 && n <= 3 && num(0, c.tenants, 1, 1 << 16) &&
           num(1, c.ops, 1) && shards_at(2);
  }
  if (m == "snap") return n >= 1 && n <= 2 && num(1, c.line);
  if (m == "clone") {
    return n >= 2 && n <= 4 && num(2, c.line) && num(3, c.version);
  }
  if (m == "destroy") return n >= 1 && n <= 2 && shards_at(1);
  if (m == "migrate") {
    // Validated against [shards] only when given: over --connect the
    // daemon's shard count rules, and it answers an out-of-range target.
    c.shards = 4;
    return n >= 2 && n <= 3 && num(1, c.to_shard) && shards_at(2) &&
           (!c.shards_given || c.to_shard < c.shards);
  }
  if (m == "qos") {
    c.ops = 2000;
    return n >= 3 && n <= 4 && num(1, c.ops_rate) && num(2, c.bytes_rate) &&
           num(3, c.ops, 1);
  }
  if (m == "balance") {
    return n >= 1 && n <= 2 && shards_at(0) && num(1, c.cycles, 1, 1 << 20);
  }
  if (m == "stats" || m == "cache" || m == "metrics") {
    return n <= 1 && shards_at(0);
  }
  if (m == "query" || m == "raw") {
    return n >= 1 && n <= 2 && num(0, c.block) && num(1, c.count, 1);
  }
  if (m == "dump-run") return n == 1;
  return is_volume_cmd(m) && n == 0;
}

// --- where service commands go ----------------------------------------------

/// The backlogd every service command talks to: the --connect target, or
/// the root this process hosts for the command. `--wait-ms N` fills
/// retry_for_ms so scripts can start the client before the daemon has
/// bound instead of sleeping and hoping.
std::string g_host;
std::uint16_t g_port = 0;
net::Client::ConnectOptions g_connect_opts;

net::Client dial() {
  net::Client c;
  c.connect(g_host, g_port, g_connect_opts);
  return c;
}

// --- volume commands --------------------------------------------------------

/// Local form: the directory opened standalone, rendered by the functions
/// the server's *_text verbs use.
std::string volume_report_local(const Cmd& c) {
  storage::Env env(c.target);
  if (c.name == "dump-run") return net::render_dump_run(env, c.file);
  core::BacklogDb db(env);  // opening replays the manifest first
  if (c.name == "info") return net::render_info(db, env.root());
  if (c.name == "runs") return net::render_runs(env);
  if (c.name == "scan") return net::render_records(db.scan_all(), false);
  if (c.name == "maintain") return net::render_maintenance(db.maintain());
  if (c.name == "raw") {
    return net::render_records(db.query_raw(c.block, c.count), true);
  }
  return net::render_query(db.query(c.block, c.count));
}

std::string volume_report_remote(const Cmd& c) {
  net::Client cl = dial();
  const std::string& t = c.target;
  if (c.name == "dump-run") return cl.dump_run_text(t, c.file);
  if (c.name == "info") return cl.info_text(t);
  if (c.name == "runs") return cl.runs_text(t);
  if (c.name == "scan") return cl.scan_text(t);
  if (c.name == "maintain") return cl.maintain_text(t);
  return cl.query_text(t, c.block, c.count, c.name == "raw");
}

// --- service commands -------------------------------------------------------

/// stress keeps this many connections at most, each driving its share of
/// the tenants one after another.
constexpr std::uint64_t kStressConnections = 16;

std::string stress_tenant_name(std::uint64_t i) {
  char name[32];
  std::snprintf(name, sizeof name, "tenant-%03llu",
                static_cast<unsigned long long>(i));
  return name;
}

service::UpdateOp add_op(core::BlockNo block) {
  service::UpdateOp op;
  op.kind = service::UpdateOp::Kind::kAdd;
  op.key.block = block;
  op.key.inode = 2;
  op.key.length = 1;
  return op;
}

/// Replays tenant i's synthetic trace (seed 42 + i) through apply_batch in
/// `chunk`-op batches, with an 8-block query after every 64 ops, then
/// commits a consistency point. Returns the ops applied.
std::uint64_t drive_tenant(net::Client& cl, std::uint64_t i,
                           std::uint64_t block_ops, std::uint64_t chunk) {
  const std::string name = stress_tenant_name(i);
  cl.open_volume(name);
  fsim::TenantTraceOptions to;
  to.block_ops = block_ops;
  to.seed = 42 + i;
  const fsim::TenantTrace trace = fsim::synthesize_tenant_trace(to);
  std::vector<service::UpdateOp> pending;
  pending.reserve(chunk);
  std::uint64_t done = 0, since_query = 0;
  for (const auto& op : trace.ops) {
    pending.push_back(op);
    if (pending.size() < chunk) continue;
    cl.apply_batch(name, pending);
    done += pending.size();
    since_query += pending.size();
    pending.clear();
    if (since_query >= 64) {
      since_query = 0;
      service::QueryRange qr;
      qr.first = op.key.block;
      qr.count = 8;
      cl.query_batch(name, {qr});
    }
  }
  if (!pending.empty()) {
    cl.apply_batch(name, pending);
    done += pending.size();
  }
  cl.consistency_point(name);
  return done;
}

int run_stress(const Cmd& c) {
  // The data plane speaks apply_batch; a per-op round trip would measure
  // nothing but latency.
  const std::uint64_t chunk =
      std::min<std::uint64_t>(c.batch, net::wire::kMaxBatchOps);
  const std::uint64_t per_tenant =
      std::max<std::uint64_t>(1, c.ops / c.tenants);
  const std::uint64_t conns = std::min(c.tenants, kStressConnections);

  std::vector<std::jthread> threads;
  std::vector<std::uint64_t> ops_done(conns, 0);
  std::vector<std::string> errors(conns);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < conns; ++k) {
    threads.emplace_back([&, k] {
      std::uint64_t i = k;
      try {
        net::Client cl = dial();  // a Client is not thread-safe: one each
        for (; i < c.tenants; i += conns) {
          ops_done[k] += drive_tenant(cl, i, per_tenant, chunk);
        }
      } catch (const std::exception& e) {
        errors[k] = stress_tenant_name(i) + ": " + e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& e : errors) {
    if (e.empty()) continue;
    std::fprintf(stderr, "backlogctl: %s\n", e.c_str());
    return 1;
  }
  std::uint64_t ops = 0;
  for (const std::uint64_t n : ops_done) ops += n;
  std::printf("tenants:           %" PRIu64 " over %" PRIu64 " connections\n",
              c.tenants, conns);
  std::printf("update verb:       apply_batch (%" PRIu64 "-op chunks)\n",
              chunk);
  std::printf("block ops:         %" PRIu64 " in %.2f s (%.0f ops/s)\n", ops,
              wall, wall > 0 ? ops / wall : 0.0);
  std::fputs(dial().stats_text(false).c_str(), stdout);
  return 0;
}

int run_trace(const Cmd& c) {
  net::Client cl = dial();
  cl.set_tracing(static_cast<std::uint32_t>(c.sample), c.slow_us);
  const std::uint64_t per_tenant =
      std::max<std::uint64_t>(1, c.ops / c.tenants);
  for (std::uint64_t i = 0; i < c.tenants; ++i) {
    drive_tenant(cl, i, per_tenant, 64);
  }
  std::fputs(cl.trace_text(c.sample, c.slow_us).c_str(), stdout);
  return 0;
}

int run_clone(const Cmd& c) {
  net::Client cl = dial();
  cl.open_volume(c.tenant);
  core::Epoch version = c.version;
  if (version == 0) {  // default: the latest retained snapshot of the line
    const auto versions = cl.list_versions(c.tenant, c.line);
    if (versions.empty()) {
      std::fprintf(stderr,
                   "backlogctl: %s line %" PRIu64
                   " has no retained snapshot (run `backlogctl snap` first)\n",
                   c.tenant.c_str(), c.line);
      return 1;
    }
    version = versions.back();
  }
  const auto res = cl.clone_volume(c.tenant, c.dst, c.line, version);
  std::printf("cloned %s snapshot (line %" PRIu64 ", v%" PRIu64
              ") -> tenant %s, writable line %" PRIu64 "\n",
              c.tenant.c_str(), c.line, version, c.dst.c_str(), res.new_line);
  std::printf("copy-on-write: %" PRIu64 " shared files, %" PRIu64
              " shared bytes (%.2f MB stored once instead of per clone)\n",
              res.shared_files, res.shared_bytes,
              res.saved_bytes / (1024.0 * 1024.0));
  return 0;
}

int run_migrate(const Cmd& c) {
  net::Client cl = dial();
  cl.open_volume(c.tenant);
  const core::QuickStats before = cl.quick_stats(c.tenant);
  const service::MigrationStats ms = cl.migrate_volume(c.tenant, c.to_shard);
  if (!ms.moved) {
    std::printf("%s already lives on shard %zu — nothing to do\n",
                c.tenant.c_str(), ms.source_shard);
  } else {
    std::printf("migrated %s: shard %zu -> %zu (%s, %zu racing ops replayed)\n",
                c.tenant.c_str(), ms.source_shard, ms.target_shard,
                ms.forced_cp ? "flushed a consistency point"
                             : "write store empty",
                ms.replayed_tasks);
  }
  const core::QuickStats after = cl.quick_stats(c.tenant);
  std::printf("write store: %" PRIu64 " -> %" PRIu64 " entries, run records: %"
              PRIu64 " -> %" PRIu64 "\n",
              before.ws_entries, after.ws_entries, before.run_records,
              after.run_records);
  return 0;
}

int run_qos(const Cmd& c) {
  net::Client cl = dial();
  cl.open_volume(c.tenant);
  service::TenantQos qos;
  qos.ops_per_sec = c.ops_rate == 0 ? service::kUnlimitedRate
                                    : static_cast<double>(c.ops_rate);
  qos.bytes_per_sec = c.bytes_rate == 0 ? service::kUnlimitedRate
                                        : static_cast<double>(c.bytes_rate);
  qos.burst_ops = 256;
  qos.burst_bytes = 1 << 20;
  qos.max_wait_queue = 1 << 16;
  cl.set_qos(c.tenant, qos);
  const auto rate = [](std::uint64_t r) {
    return r == 0 ? std::string("unlimited") : std::to_string(r);
  };
  std::printf("qos on %s: %s ops/s, %s bytes/s (burst %g ops / %g bytes)\n",
              c.tenant.c_str(), rate(c.ops_rate).c_str(),
              rate(c.bytes_rate).c_str(), qos.burst_ops, qos.burst_bytes);

  // One op per request, synchronously: a throttled op comes back as a
  // kThrottled ServiceError.
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < c.ops; ++i) {
    try {
      cl.apply_batch(c.tenant, {add_op(1 + i)});
    } catch (const service::ServiceError& e) {
      if (e.code() != service::ErrorCode::kThrottled) throw;
      ++rejected;
    }
  }
  cl.consistency_point(c.tenant);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const service::QosSnapshot snap = cl.qos_snapshot(c.tenant);
  std::printf("drove %" PRIu64 " ops in %.2f s (%.0f ops/s effective)\n",
              c.ops, wall,
              wall > 0 ? static_cast<double>(c.ops - rejected) / wall : 0);
  std::printf("admission: %" PRIu64 " direct, %" PRIu64 " waited, %" PRIu64
              " released, %" PRIu64 " rejected (kThrottled)\n",
              snap.admitted, snap.queued, snap.released, snap.rejected);
  return 0;
}

/// One `metrics --watch` rate line. A sample with primed=false has no
/// previous poll to difference against — its zeros are "unknown", not
/// "idle" — so it is labeled instead of printed as rates.
void print_rate_window(const service::RateSample& s) {
  if (!s.primed) {
    std::printf("window %.3fs: priming (no previous sample yet)\n",
                s.window_seconds);
    return;
  }
  double busy = 0;
  for (const double b : s.shard_busy_fraction) busy = std::max(busy, b);
  std::printf("window %.3fs: %.0f update ops/s, %.0f queries/s, "
              "%.0f throttles/s, max shard busy %.1f%%\n",
              s.window_seconds, s.update_ops_per_sec, s.queries_per_sec,
              s.throttles_per_sec, 100.0 * busy);
}

int run_metrics(const Cmd& c) {
  net::Client cl = dial();
  const std::vector<std::string> tenants = cl.list_tenants();
  if (tenants.empty()) {
    std::fprintf(stderr, "backlogctl: no volumes hosted\n");
    return 1;
  }
  // Synthetic pulse, one batch per tenant: each add is followed by its
  // remove, so they annihilate in the write store — real dispatch load,
  // volumes left unchanged.
  core::BlockNo probe = 1ull << 40;
  const auto pulse = [&] {
    for (const auto& t : tenants) {
      std::vector<service::UpdateOp> batch;
      for (int i = 0; i < 16; ++i) {
        const service::UpdateOp add = add_op(probe++);
        service::UpdateOp remove = add;
        remove.kind = service::UpdateOp::Kind::kRemove;
        batch.push_back(add);
        batch.push_back(remove);
      }
      cl.apply_batch(t, batch);
    }
  };
  pulse();
  // The server's poller may never have been polled: the priming sample is
  // labeled, not misread as an idle service.
  const service::RateSample first = cl.poll_rates();
  if (!first.primed && c.watch > 0) print_rate_window(first);
  for (std::uint64_t w = 0; w < std::max<std::uint64_t>(1, c.watch); ++w) {
    pulse();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const service::RateSample s = cl.poll_rates();
    if (c.watch > 0) print_rate_window(s);
  }
  std::fputs(cl.metrics_text(c.json).c_str(), stdout);
  return 0;
}

int run_service(const Cmd& c) {
  const std::string& m = c.name;
  if (m == "stress") return run_stress(c);
  if (m == "trace") return run_trace(c);
  if (m == "clone") return run_clone(c);
  if (m == "migrate") return run_migrate(c);
  if (m == "qos") return run_qos(c);
  if (m == "metrics") return run_metrics(c);
  net::Client cl = dial();
  if (m == "snap") {
    cl.open_volume(c.tenant);
    const core::Epoch version = cl.take_snapshot(c.tenant, c.line);
    std::printf("retained snapshot (line %" PRIu64 ", v%" PRIu64 ") of %s\n",
                c.line, version, c.tenant.c_str());
  } else if (m == "destroy") {
    const auto res = cl.destroy_volume(c.tenant);
    std::printf("destroyed %s: released %" PRIu64
                " shared-file references; %" PRIu64
                " files still shared elsewhere\n",
                c.tenant.c_str(), res.released_refs, res.shared_files);
  } else if (m == "balance") {
    std::fputs(cl.balance_text(c.cycles).c_str(), stdout);
  } else if (m == "stats") {
    std::fputs(cl.stats_text(c.json).c_str(), stdout);
  } else {  // cache
    if (c.clear) {
      cl.cache_clear();
      std::fputs("caches cleared\n", stdout);
    }
    std::fputs(cl.cache_text(c.json).c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool remote = false;
  int shift = 0;  // argv entries taken by --connect host:port [--wait-ms N]
  if (argc >= 2 && std::strcmp(argv[1], "--connect") == 0) {
    if (argc < 3 || !net::parse_host_port(argv[2], g_host, g_port)) {
      return usage();
    }
    remote = true;
    shift = 2;
    if (argc >= 4 && std::strcmp(argv[3], "--wait-ms") == 0) {
      std::uint64_t wait_ms = 0;
      if (argc < 5 || !parse_u64(argv[4], wait_ms, 0, 10 * 60 * 1000)) {
        return usage();
      }
      g_connect_opts.retry_for_ms = static_cast<std::uint32_t>(wait_ms);
      shift = 4;
    }
  }
  Cmd c;
  if (!parse(argc - shift, argv + shift, c)) return usage();
  try {
    if (is_volume_cmd(c.name)) {
      const std::string out =
          remote ? volume_report_remote(c) : volume_report_local(c);
      std::fputs(out.c_str(), stdout);
      return 0;
    }
    std::optional<net::HostedRoot> hosted;
    if (!remote) {
      hosted.emplace(c.target, c.shards, /*commit_window_micros=*/0,
                     net::ServerOptions{});  // 127.0.0.1, ephemeral port
      g_host = "127.0.0.1";
      g_port = hosted->port();
    }
    const int rc = run_service(c);
    if (hosted) hosted->stop();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "backlogctl: %s\n", e.what());
    return 1;
  }
}
