// Workload `service_wire`: the deployed shape. A server process (see
// serve.cpp) hosts 16 tenant volumes with the group-commit WAL on; this
// process offers it an open loop of requests over 3 data connections and
// takes the tenants' CPs over a fourth.
//
// Each of twenty rounds: synthesize the tenants' traces and the request
// schedule, start a server on a fresh root and open the volumes (set-up);
// run the schedule for a twentieth of --seconds; kill -9 the server, restart it
// (timed as recovery) and check over the wire that every acknowledged
// update survived. Many short rounds keep the Level-0 run count (there is
// no maintenance) and the tail percentiles alike from drifting with round
// length.
//
// Load: Poisson arrivals at a fixed 800 requests/s (no calibration).
// Tenants get Zipf(1.0) shares and each is pinned to one connection, so its
// requests stay in order; tenants are spread over the connections by share.
// 80% of requests are 64-op apply_batch calls replaying the tenant's
// fsim::synthesize_tenant_trace trace, 10% are point owner queries and 10%
// range scans of 64-1024 blocks. The client also takes a snapshot every
// 4,096 ops of a tenant (trace events, on its data connection) and asks the
// control connection for a CP every 256 ops. Maintenance is left to the
// other workloads: over the wire it needs an empty write store, which only
// a pause in the tenant's traffic gives. Latency is timed from the
// moment a request was due, so a stall also charges the requests queued
// behind it.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "fsim/multi_tenant.hpp"
#include "net/client.hpp"
#include "service/service_stats.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace fsim = backlog::fsim;
namespace service = backlog::service;

namespace {

constexpr std::size_t kTenants = 16;
constexpr std::size_t kMaxConns = 4;
constexpr double kRequestsPerSec = 800;
constexpr std::uint64_t kBatchOps = 64;
constexpr std::uint64_t kCpEveryOps = 256;
constexpr std::uint64_t kSnapshotEveryOps = 4096;
constexpr std::uint32_t kTraceSampleEvery = 4;
constexpr std::uint64_t kCheckChunk = 2048;  // blocks per ledger-check range

std::string tenant_name(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "t%02zu", i);
  return buf;
}

// --- the server process ----------------------------------------------------

class ServerProcess {
 public:
  ServerProcess(const std::string& exe, const std::filesystem::path& root)
      : root_(root) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      const std::string r = root.string();
      execl(exe.c_str(), exe.c_str(), "serve", r.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
    const std::string line = read_line();
    if (line.rfind("listening ", 0) != 0) {
      stop(SIGKILL);
      throw std::runtime_error("server did not start: " + line);
    }
    port_ = static_cast<std::uint16_t>(std::stoul(line.substr(10)));
  }
  ~ServerProcess() { stop(SIGKILL); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Asks the server for its counters; returns the dump's lines.
  std::vector<std::string> dump() {
    kill(pid_, SIGUSR1);
    if (read_line() != "dumped") throw std::runtime_error("server dump failed");
    std::ifstream in(root_.string() + ".stats");
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    return lines;
  }

  /// Sends `sig` and waits for the process to end.
  void stop(int sig) {
    if (pid_ <= 0) return;
    kill(pid_, sig);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    close(out_);
  }

 private:
  std::string read_line() {
    std::string line;
    for (;;) {
      pollfd p{out_, POLLIN, 0};
      if (poll(&p, 1, 60000) <= 0) throw std::runtime_error("server silent");
      char c = 0;
      if (read(out_, &c, 1) != 1) return line;
      if (c == '\n') return line;
      line += c;
    }
  }

  std::filesystem::path root_;
  int pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

/// The server's counters at one moment (see serve.cpp's dump format).
struct ServerSnapshot {
  std::map<std::string, double> v;
  std::map<std::string, service::LatencyHistogram> hist;
  std::map<std::string, std::uint64_t> busy;  // shard -> busy micros
  struct Span {
    std::uint64_t t_submit, gate, queue, exec, io;
    std::string verb, tenant;
  };
  std::vector<Span> spans;

  explicit ServerSnapshot(const std::vector<std::string>& lines) {
    for (const std::string& l : lines) {
      std::istringstream in(l);
      std::string key;
      in >> key;
      if (key == "hist") {
        std::string name, bucket;
        std::uint64_t sum = 0, max = 0;
        in >> name >> sum >> max;
        service::LatencyHistogram& h = hist[name];
        while (in >> bucket) {
          const auto colon = bucket.find(':');
          h.ingest_bucket(service::LatencyHistogram::bucket_of(
                              std::stoull(bucket.substr(0, colon))),
                          std::stoull(bucket.substr(colon + 1)));
        }
        h.ingest_sum_max(sum, max);
      } else if (key == "busy") {
        std::string shard;
        std::uint64_t us = 0;
        in >> shard >> us;
        busy[shard] = us;
      } else if (key == "span") {
        Span s;
        in >> s.t_submit >> s.gate >> s.queue >> s.exec >> s.io >> s.verb >> s.tenant;
        spans.push_back(s);
      } else {
        in >> v[key];
      }
    }
  }
  [[nodiscard]] double operator[](const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
};

/// Samples of the observations a log2 histogram gained between two
/// snapshots, spread evenly inside each bucket.
void histogram_delta(const service::LatencyHistogram& a,
                     const service::LatencyHistogram& b, Samples& out,
                     double scale = 1.0) {
  std::map<std::uint64_t, std::uint64_t> before;
  for (const auto& bk : a.to_buckets()) before[bk.le_micros] = bk.count;
  for (const auto& bk : b.to_buckets()) {
    const std::uint64_t n = bk.count - before[bk.le_micros];
    const double hi = static_cast<double>(bk.le_micros);
    const double lo = hi <= 1 ? 0.0 : hi / 2;
    for (std::uint64_t k = 0; k < n; ++k) {
      out.add(scale * (lo + (hi - lo) * (static_cast<double>(k) + 0.5) /
                                static_cast<double>(n)));
    }
  }
}

// --- the load ----------------------------------------------------------------

enum class Kind : std::uint8_t { kApply, kPoint, kScan };

struct Request {
  std::uint64_t due_ns;  ///< offset from the start of the window
  std::uint32_t tenant;
  Kind kind;
  std::uint32_t len;     ///< scan length in blocks
  std::uint64_t pick;    ///< random draw choosing the queried live block
};

/// Live references of one tenant as the client knows them (acked applies).
struct Ledger {
  std::map<core::BlockNo, core::BackrefKey> by_block;
  std::vector<core::BlockNo> blocks;  // for uniform picks
  std::unordered_map<core::BlockNo, std::size_t> index;

  void apply(const core::Update& u) {
    if (u.kind == core::Update::Kind::kAdd) {
      by_block[u.key.block] = u.key;
      index[u.key.block] = blocks.size();
      blocks.push_back(u.key.block);
    } else {
      by_block.erase(u.key.block);
      const std::size_t i = index[u.key.block];
      index[blocks.back()] = i;
      blocks[i] = blocks.back();
      blocks.pop_back();
      index.erase(u.key.block);
    }
  }
  /// Live keys whose extent overlaps [first, first + count).
  [[nodiscard]] std::set<core::BackrefKey> overlapping(std::uint64_t first,
                                                       std::uint64_t count) const {
    std::set<core::BackrefKey> out;
    const std::uint64_t lo = first >= 8 ? first - 8 : 0;  // extents <= 4 blocks
    for (auto it = by_block.lower_bound(lo);
         it != by_block.end() && it->first < first + count; ++it) {
      if (it->first + it->second.length > first) out.insert(it->second);
    }
    return out;
  }
};

std::set<core::BackrefKey> live_in(
    const std::vector<std::vector<core::BackrefEntry>>& answers) {
  std::set<core::BackrefKey> out;
  for (const auto& entries : answers) {
    for (const auto& e : entries) {
      if (!e.rec.complete()) out.insert(e.rec.key);
    }
  }
  return out;
}

/// One connection's share of the round: its requests and results.
struct Conn {
  std::vector<Request> requests;
  Samples update_us, point_us, scan_us, late_us;
  std::uint64_t ops = 0, queries = 0, attempted = 0;
  std::vector<std::string> failures;
  /// Client-side timing of every request, for lining up server spans.
  struct Call {
    std::uint64_t start_us, end_us;
    std::uint32_t tenant;
  };
  std::vector<Call> calls;
};

/// The control connection: the CPs the data connections ask for, taken in
/// order on a connection of their own, so a CP holds up a tenant's data
/// requests only where the server makes it (on the shared shard).
class Control {
 public:
  void push(std::uint32_t tenant) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(tenant);
    }
    cv_.notify_one();
  }
  /// No more pushes: run() drains the queue and returns.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  void run(std::uint16_t port) {
    backlog::net::Client client;
    for (;;) {
      std::uint32_t tenant = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        tenant = queue_.front();
        queue_.pop_front();
      }
      ++attempted;
      try {
        if (!client.connected()) client.connect("127.0.0.1", port);
        const std::uint64_t sent = now_ns();
        client.consistency_point(tenant_name(tenant));
        cp_ms.add(static_cast<double>(now_ns() - sent) / 1e6);
      } catch (const std::exception& e) {
        failures.push_back(std::string("service_wire: CP failed: ") + e.what());
      }
    }
  }

  /// From the moment the CP request is sent: the wait in this client's
  /// queue of CPs is the benchmark's, not the server's.
  Samples cp_ms;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::uint32_t> queue_;
  bool closed_ = false;
};

struct TenantState {
  fsim::TenantTrace trace;
  Ledger ledger;
  std::size_t next_op = 0, next_event = 0;
  std::uint64_t since_cp = 0;
};

void run_conn(Conn& c, std::uint16_t port, std::uint64_t start_ns,
              std::vector<TenantState>& tenants, Control& control,
              const std::string& plant) {
  backlog::net::Client client;
  backlog::net::Client::ConnectOptions co;
  co.retry_for_ms = 5000;
  try {
    client.connect("127.0.0.1", port, co);
  } catch (const std::exception& e) {
    c.attempted += c.requests.size();
    c.failures.push_back(std::string("service_wire: connect failed: ") + e.what());
    c.failures.resize(c.requests.size(), "service_wire: not sent");
    return;
  }
  for (std::size_t i = 0; i < c.requests.size(); ++i) {
    const Request& rq = c.requests[i];
    TenantState& ts = tenants[rq.tenant];
    const std::string name = tenant_name(rq.tenant);
    const std::uint64_t due = start_ns + rq.due_ns;
    std::uint64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = now_ns();
    }
    c.late_us.add(static_cast<double>(now - std::min(now, due)) / 1e3);
    ++c.attempted;
    try {
      if (rq.kind == Kind::kApply) {
        const auto& ops = ts.trace.ops;
        const std::size_t end = std::min(ops.size(), ts.next_op + kBatchOps);
        const auto& events = ts.trace.events;
        while (ts.next_event < events.size() &&
               events[ts.next_event].at_op <= ts.next_op) {
          client.take_snapshot(name, events[ts.next_event].line);
          ++ts.next_event;
        }
        const std::vector<service::UpdateOp> batch(ops.begin() + ts.next_op,
                                                   ops.begin() + end);
        client.apply_batch(name, batch);
        const std::uint64_t done = now_ns();
        c.calls.push_back({now / 1000, done / 1000, rq.tenant});
        c.update_us.add(static_cast<double>(done - due) / 1e3);
        for (const auto& u : batch) ts.ledger.apply(u);
        c.ops += batch.size();
        ts.next_op = end;
        ts.since_cp += batch.size();
        if (ts.since_cp >= kCpEveryOps) {
          ts.since_cp = 0;
          control.push(rq.tenant);
        }
        continue;
      }
      // Query a live block; a tenant whose removes emptied it asks for
      // block 1 and must get no live owner.
      const Ledger& led = ts.ledger;
      const core::BlockNo b =
          led.blocks.empty() ? 1 : led.blocks[rq.pick % led.blocks.size()];
      service::QueryRange range;
      range.count = rq.kind == Kind::kPoint ? 1 : rq.len;
      range.first = rq.kind == Kind::kPoint ? b : (b > range.count / 2 ? b - range.count / 2 : 1);
      const auto answer = client.query_batch(name, {range});
      const std::uint64_t done = now_ns();
      c.calls.push_back({now / 1000, done / 1000, rq.tenant});
      (rq.kind == Kind::kPoint ? c.point_us : c.scan_us)
          .add(static_cast<double>(done - due) / 1e3);
      ++c.queries;
      std::set<core::BackrefKey> got = live_in(answer);
      if (plant == "wire_query" && c.queries == 1) {  // planted wrong owner
        got.insert(core::BackrefKey{range.first, 999999, 0, 1, 0});
      }
      if (got != led.overlapping(range.first, range.count)) {
        c.failures.push_back("service_wire: query [" + std::to_string(range.first) +
                             ", +" + std::to_string(range.count) + ") of " + name +
                             " disagrees with the acked updates");
      }
    } catch (const std::exception& e) {
      c.failures.push_back(std::string("service_wire: request failed: ") + e.what());
      if (!client.connected()) {
        // The stream cannot be resynchronised: the rest of this
        // connection's requests fail too.
        for (++i; i < c.requests.size(); ++i) {
          ++c.attempted;
          c.failures.push_back("service_wire: connection lost");
        }
      }
    }
  }
}

struct Plan {
  std::vector<TenantState> tenants;
  std::vector<Conn> conns;
};

/// The round's inputs: tenant traces sized to the schedule, and the
/// per-connection request lists. Same seed, same plan.
Plan make_plan(std::uint64_t seed, double window_s, std::size_t conns) {
  backlog::util::Rng rng(seed * 0x9e3779b9 + 11);
  constexpr double kAlpha = 1.0;
  std::vector<double> share(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    share[t] = std::pow(static_cast<double>(t + 1), -kAlpha);
  }
  Plan p;
  p.conns.resize(conns);
  // Tenants by falling share, each onto the least-loaded connection.
  std::vector<std::size_t> conn_of(kTenants);
  std::vector<double> load(conns, 0.0);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const std::size_t c = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    conn_of[t] = c;
    load[c] += share[t];
  }
  std::vector<std::uint64_t> applies(kTenants, 0);
  double at = 0;
  for (std::uint64_t i = 0;; ++i) {
    at += -std::log(1.0 - rng.uniform()) / kRequestsPerSec;  // Poisson gaps
    if (at >= window_s) break;
    Request rq{};
    rq.due_ns = static_cast<std::uint64_t>(at * 1e9);
    rq.tenant = static_cast<std::uint32_t>(backlog::util::sample_discrete(rng, share));
    rq.len = static_cast<std::uint32_t>(rng.between(64, 1024));
    rq.pick = rng.next();
    // Fixed shares of the mix, so every seed gets the same counts; a
    // tenant's first request is an apply, so queries have owners to find.
    rq.kind = i % 10 == 3 ? Kind::kPoint : i % 10 == 7 ? Kind::kScan : Kind::kApply;
    if (applies[rq.tenant] == 0) rq.kind = Kind::kApply;
    if (rq.kind == Kind::kApply) ++applies[rq.tenant];
    p.conns[conn_of[rq.tenant]].requests.push_back(rq);
  }
  p.tenants.resize(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    fsim::TenantTraceOptions to;
    to.block_ops = std::max<std::uint64_t>(kBatchOps, applies[t] * kBatchOps);
    to.seed = seed * 1000003 + t;
    to.snapshot_every_ops = kSnapshotEveryOps;
    p.tenants[t].trace = fsim::synthesize_tenant_trace(to);
  }
  return p;
}

}  // namespace

int run_service_wire(const Options& o) {
  const RoundPlan rounds{o.seed, o.trace};
  const int kRounds = rounds.min_rounds(20);
  const double window_s = o.seconds / kRounds;
  // At most nproc connections in all: the data connections plus one
  // control connection for CPs.
  const std::size_t conns = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxConns, std::thread::hardware_concurrency()) - 1);
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();

  Report r;
  Tracer tracer;
  Samples setup_s, recovery_s, rss_mb, round_rate, round_qps;
  Samples update_us, point_us, scan_us, cp_ms, late_us;
  Samples exec_update_us, queue_wait_us, server_cp_ms, overhead_us;
  OverheadPairs overhead;
  double space_sum = 0, pages = 0, fsyncs = 0, fsync_us = 0, wal_records = 0,
         wal_syncs = 0, throttled = 0, net_bytes = 0, decode_errors = 0,
         busy_max = 0, cache_hits = 0, cache_lookups = 0, rc_hits = 0,
         rc_lookups = 0, traced_wall_s = 0, apply_us_sum = 0;
  std::uint64_t total_ops = 0;
  std::vector<std::filesystem::path> dirs;

  for (int round = 0; round < kRounds; ++round) {
    const bool traced = rounds.traced(round);
    // --- set-up -----------------------------------------------------------
    const std::filesystem::path root =
        std::filesystem::absolute(o.work_dir / ("service_wire-" + std::to_string(round)));
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    const std::uint64_t s0 = now_ns();
    Plan plan = make_plan(rounds.seed_of(round), window_s, conns);
    auto server = std::make_unique<ServerProcess>(exe, root);
    {
      backlog::net::Client admin;
      admin.connect("127.0.0.1", server->port());
      for (std::size_t t = 0; t < kTenants; ++t) admin.open_volume(tenant_name(t));
      admin.set_tracing(traced ? kTraceSampleEvery : 0, 0);
    }
    setup_s.add(static_cast<double>(now_ns() - s0) / 1e9);

    // --- measured: the open loop ---------------------------------------------
    const ServerSnapshot before(server->dump());
    const std::uint64_t start = now_ns() + 20'000'000;
    Control control;
    std::thread control_thread(&Control::run, &control, server->port());
    std::vector<std::thread> threads;
    for (Conn& c : plan.conns) {
      threads.emplace_back(run_conn, std::ref(c), server->port(), start,
                           std::ref(plan.tenants), std::ref(control), o.plant);
    }
    for (std::thread& t : threads) t.join();
    const double wall = static_cast<double>(now_ns() - start) / 1e9;
    control.close();
    control_thread.join();
    r.attempt(control.attempted);
    for (const std::string& f : control.failures) r.fail(f);
    cp_ms.append(control.cp_ms);

    const ServerSnapshot after(server->dump());

    std::uint64_t ops = 0, queries = 0;
    Samples round_update;
    for (Conn& c : plan.conns) {
      ops += c.ops;
      queries += c.queries;
      r.attempt(c.attempted);
      for (const std::string& f : c.failures) r.fail(f);
      update_us.append(c.update_us);
      round_update.append(c.update_us);
      point_us.append(c.point_us);
      scan_us.append(c.scan_us);
      late_us.append(c.late_us);
    }
    total_ops += ops;
    round_rate.add(static_cast<double>(ops) / wall);
    round_qps.add(static_cast<double>(queries) / wall);
    overhead.add(rounds, round, round_update.median());
    rss_mb.add(after["peak_rss_mb"]);
    pages += after["page_writes"] - before["page_writes"];
    fsyncs += after["fsyncs"] - before["fsyncs"];
    fsync_us += after["fsync_micros"] - before["fsync_micros"];
    wal_records += after["wal_records"] - before["wal_records"];
    wal_syncs += after["wal_syncs"] - before["wal_syncs"];
    throttled += after["throttled"] - before["throttled"];
    net_bytes += after["net_bytes"] - before["net_bytes"];
    decode_errors += after["decode_errors"] - before["decode_errors"];
    cache_hits += after["cache_hits"] - before["cache_hits"];
    cache_lookups += after["cache_hits"] + after["cache_misses"] -
                     before["cache_hits"] - before["cache_misses"];
    rc_hits += after["result_hits"] - before["result_hits"];
    rc_lookups += after["result_hits"] + after["result_misses"] -
                  before["result_hits"] - before["result_misses"];
    apply_us_sum += static_cast<double>(after.hist.at("update_batch").sum_micros() -
                                        before.hist.at("update_batch").sum_micros());
    for (const auto& [shard, us] : after.busy) {
      const auto it = before.busy.find(shard);
      const double d = static_cast<double>(us - (it == before.busy.end() ? 0 : it->second));
      busy_max = std::max(busy_max, d / 1e6 / wall);
    }
    histogram_delta(before.hist.at("update_batch"), after.hist.at("update_batch"),
                    exec_update_us);
    histogram_delta(before.hist.at("queue_wait"), after.hist.at("queue_wait"),
                    queue_wait_us);
    histogram_delta(before.hist.at("cp"), after.hist.at("cp"), server_cp_ms, 1e-3);

    if (traced) {
      // Line each sampled server span up with the client call that caused
      // it (same tenant, submitted inside the call's interval; one call at a
      // time per connection makes the match unique). Only query requests
      // count: an apply's ack also waits for its group-commit sweep, which
      // no server span covers, so its remainder would not be the wire's.
      std::map<std::uint32_t, std::vector<Conn::Call>> calls;
      for (const Conn& c : plan.conns) {
        for (const Conn::Call& k : c.calls) calls[k.tenant].push_back(k);
      }
      for (const ServerSnapshot::Span& s : after.spans) {
        if (s.verb != "query_batch") continue;
        const std::uint32_t t = static_cast<std::uint32_t>(std::stoul(s.tenant.substr(1)));
        const auto& list = calls[t];
        auto it = std::upper_bound(list.begin(), list.end(), s.t_submit,
                                   [](std::uint64_t v, const Conn::Call& k) {
                                     return v < k.start_us;
                                   });
        if (it == list.begin()) continue;
        --it;
        if (s.t_submit > it->end_us) continue;
        const std::uint64_t e2e = s.gate + s.queue + s.exec;
        const std::uint64_t call_us = it->end_us - it->start_us;
        if (e2e > call_us) continue;
        overhead_us.add(static_cast<double>(call_us - e2e));
        tracer.enabled = true;
        const std::uint64_t a = it->start_us * 1000, b = it->end_us * 1000;
        tracer.add("net.call", a, b, -1, 0);
        const auto parent = static_cast<std::int64_t>(tracer.size() - 1);
        const std::uint64_t sub = s.t_submit * 1000;
        tracer.add("service.wait", sub, sub + (s.gate + s.queue) * 1000, parent, 0);
        const std::uint64_t x = sub + (s.gate + s.queue) * 1000;
        tracer.add("core.execute", x, x + (s.exec - s.io) * 1000, parent, 0);
        tracer.add("storage.io", x + (s.exec - s.io) * 1000, x + s.exec * 1000, parent, 0);
        traced_wall_s += static_cast<double>(call_us) / 1e6;
      }
    }

    // --- tail: kill -9, restart, check every acked update ---------------------
    server->stop(SIGKILL);
    server.reset();
    std::size_t live_refs = 0;
    for (const TenantState& ts : plan.tenants) live_refs += ts.ledger.blocks.size();
    space_sum += static_cast<double>(dir_bytes(root)) / static_cast<double>(live_refs);

    // Three crash-restarts: each replays the WAL again.
    backlog::net::Client check;
    for (int rep = 0; rep < 3; ++rep) {
      if (rep > 0) {
        check.close();
        server->stop(SIGKILL);
      }
      const std::uint64_t k0 = now_ns();
      server = std::make_unique<ServerProcess>(exe, root);
      check.connect("127.0.0.1", server->port());
      for (std::size_t t = 0; t < kTenants; ++t) {
        (void)check.query_batch(tenant_name(t), {service::QueryRange{}});
      }
      recovery_s.add(static_cast<double>(now_ns() - k0) / 1e9);
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      const TenantState& ts = plan.tenants[t];
      core::BlockNo end = 1;
      if (!ts.ledger.by_block.empty()) end = ts.ledger.by_block.rbegin()->first + 8;
      for (const auto& op : ts.trace.ops) end = std::max(end, op.key.block + op.key.length);
      std::set<core::BackrefKey> got;
      for (core::BlockNo b = 1; b < end; b += kCheckChunk) {
        service::QueryRange q;
        q.first = b;
        q.count = kCheckChunk;
        const auto part = live_in(check.query_batch(tenant_name(t), {q}));
        got.insert(part.begin(), part.end());
      }
      if (o.plant == "wire_ledger" && t == 0 && !got.empty()) {
        got.erase(got.begin());  // planted lost update
      }
      std::set<core::BackrefKey> want;
      for (const auto& [block, key] : ts.ledger.by_block) want.insert(key);
      r.attempt();
      if (got != want) {
        r.fail("service_wire: after kill -9 and restart " + tenant_name(t) +
               " holds " + std::to_string(got.size()) + " live references, " +
               std::to_string(want.size()) + " were acknowledged");
      }
    }
    check.close();
    server->stop(SIGTERM);
    server.reset();
    std::filesystem::remove(root.string() + ".stats");
    settle_disk();
    dirs.push_back(root);
  }
  remove_dirs(dirs);

  const double ops = static_cast<double>(total_ops);
  if (!o.trace) {
    r.metric("update_ops_per_s", round_rate.median(), "ops/s", round_rate.size());
    r.percentile("update", "_us", update_us, 50, "us");
    r.percentile("update", "_us", update_us, 99, "us");
    r.percentile("query", "_us", point_us, 50, "us");
    r.percentile("query", "_us", point_us, 99, "us");
    r.percentile("scan", "_us", scan_us, 99, "us");
    r.metric("queries_per_s", round_qps.median(), "q/s", round_qps.size());
    r.percentile("cp", "_ms", cp_ms, 99, "ms");
    r.metric("write_pages_per_op", pages / ops, "pages/op");
    r.metric("space_bytes_per_ref", space_sum / kRounds, "B");
    r.metric("recovery_s", recovery_s.median(), "s", recovery_s.size());
    r.metric("setup_s", setup_s.median(), "s", setup_s.size());
    r.metric("peak_rss_mb", rss_mb.median(), "MB", rss_mb.size());
  } else {
    LayerValues v;
    v.value["core.apply_ns_per_op"] = apply_us_sum * 1e3 / ops;
    v.samples["core.cp_ms"] = &server_cp_ms;
    v.value["core.result_cache_hit_ratio"] = rc_lookups == 0 ? 0.0 : rc_hits / rc_lookups;
    v.value["storage.cache_hit_ratio"] = cache_lookups == 0 ? 0.0 : cache_hits / cache_lookups;
    v.value["storage.fsyncs_per_op"] = fsyncs / ops;
    v.value["storage.fsync_us_mean"] = fsyncs == 0 ? 0.0 : fsync_us / fsyncs;
    v.samples["service.exec_update_us"] = &exec_update_us;
    v.samples["service.queue_wait_us"] = &queue_wait_us;
    v.value["service.wal_records_per_sync"] = wal_syncs == 0 ? 0.0 : wal_records / wal_syncs;
    v.value["service.shard_busy_max_frac"] = busy_max;
    v.value["service.throttled"] = throttled;
    v.samples["net.overhead_us"] = &overhead_us;
    v.value["net.bytes_per_op"] = net_bytes / ops;
    v.value["net.decode_errors"] = decode_errors;
    v.samples["bench.late_us"] = &late_us;
    v.value["bench.trace_overhead_pct"] = overhead.pct();
    v.value["error_frac"] =
        static_cast<double>(r.failed()) / static_cast<double>(r.attempted());
    report_layers(r, v, /*wire=*/true);
    report_self_times(r, tracer, traced_wall_s, /*wire=*/true);
    tracer.dump(o.work_dir / ("spans-service_wire-" + std::to_string(o.seed) + ".tsv"));
  }
  r.print();
  return r.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
