// `perfbench serve <root>`: the server process of the service_wire workload.
//
// It hosts the same components as tools/backlogd — one VolumeManager with
// the group-commit WAL on, behind a net::ServiceEndpoint — configured the
// same way (shard, I/O-thread and commit-window settings below), and adds
// one thing backlogd cannot offer over the wire: on SIGUSR1 it writes the
// VolumeManager's own counters (stats(), shard_loads(), trace_spans(), the
// metrics registry) and the server's peak RSS to `<root>.stats`, then
// prints "dumped" on stdout. The wire protocol exports neither shard busy
// time nor span timestamps, which the per-layer metrics need.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/handlers.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace service = backlog::service;

namespace {

// Sized for a 4-core host: the load generator takes the other cores.
constexpr std::size_t kShards = 4;
constexpr std::size_t kIoThreads = 1;
constexpr std::uint32_t kCommitWindowUs = 200;

void put_hist(std::ofstream& out, const char* name,
              const service::LatencyHistogram& h) {
  out << "hist " << name << ' ' << h.sum_micros() << ' ' << h.max_micros();
  for (const service::HistogramBucket& b : h.to_buckets()) {
    out << ' ' << b.le_micros << ':' << b.count;
  }
  out << '\n';
}

void dump(service::VolumeManager& vm, const backlog::net::ServiceEndpoint& ep,
          const std::filesystem::path& file) {
  const service::ServiceStats st = vm.stats();
  const service::TenantStats& t = st.total;
  std::ofstream out(file.string() + ".tmp");
  out << "updates " << t.updates << '\n'
      << "batches " << t.batches << '\n'
      << "cps " << t.cps << '\n'
      << "queries " << t.queries << '\n'
      << "throttled " << t.throttle_queued + t.throttle_rejected << '\n'
      << "page_writes " << t.io.page_writes << '\n'
      << "page_reads " << t.io.page_reads << '\n'
      << "fsyncs " << t.io.fsyncs << '\n'
      << "fsync_micros " << t.io.fsync_micros << '\n';
  service::MetricsRegistry& reg = vm.metrics();
  out << "wal_records " << reg.counter("backlog_wal_records_total", "").total()
      << '\n'
      << "wal_syncs " << reg.counter("backlog_wal_syncs_total", "").total()
      << '\n';
  const auto cache = vm.cache_stats();
  std::uint64_t rc_hits = 0, rc_misses = 0;
  for (const auto& row : cache.tenants) {
    rc_hits += row.result.hits;
    rc_misses += row.result.misses;
  }
  out << "cache_hits " << cache.block.hits << '\n'
      << "cache_misses " << cache.block.misses << '\n'
      << "cache_evictions " << cache.block.evictions << '\n'
      << "result_hits " << rc_hits << '\n'
      << "result_misses " << rc_misses << '\n';
  const backlog::net::ServerStats ns = ep.server().stats();
  out << "decode_errors " << ns.decode_errors << '\n'
      << "net_bytes " << ns.bytes_in + ns.bytes_out << '\n'
      << "peak_rss_mb " << peak_rss_mb() << '\n';
  for (const auto& load : vm.shard_loads()) {
    out << "busy " << load.shard << ' ' << load.busy_micros << '\n';
  }
  put_hist(out, "update_batch", t.update_batch_micros);
  put_hist(out, "queue_wait", t.queue_wait_micros);
  put_hist(out, "cp", t.cp_micros);
  for (const service::TraceSpan& s : vm.trace_spans()) {
    out << "span " << s.t_submit << ' ' << s.gate_wait_micros << ' '
        << s.queue_wait_micros << ' ' << s.execute_micros << ' '
        << s.io_micros << ' ' << service::to_string(s.verb) << ' ' << s.tenant
        << '\n';
  }
  out.close();
  std::filesystem::rename(file.string() + ".tmp", file);
}

}  // namespace

int run_serve(int argc, char** argv) {
  if (argc != 1) return 2;
  const std::filesystem::path root = argv[0];
  service::ServiceOptions so;
  so.root = root;
  so.shards = kShards;
  so.wal_enabled = true;
  so.wal_commit_window_micros = kCommitWindowUs;
  so.trace_ring_size = 1u << 16;  // keep every sampled span of a run
  // Flush policy: the WAL appends and the group-commit sweeps run as
  // deployed, but the sweeps' fsyncs are no-ops (see README: fsync latency
  // on the sandbox's shared disk varies tenfold from minute to minute).
  so.env_prepare = [](const std::string&, backlog::storage::Env& env) {
    env.set_sync(false);
  };

  // Signals are taken synchronously by sigwait below.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGUSR1);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  try {
    service::VolumeManager vm(so);
    std::filesystem::create_directories(root);
    for (const auto& e : std::filesystem::directory_iterator(root)) {
      if (e.is_directory()) vm.open_volume(e.path().filename().string());
    }
    backlog::net::ServiceEndpoint endpoint(vm);
    backlog::net::ServerOptions opts;
    opts.port = 0;
    opts.io_threads = kIoThreads;
    endpoint.start(opts);
    std::printf("listening %u\n", endpoint.port());
    std::fflush(stdout);

    for (;;) {
      int sig = 0;
      sigwait(&set, &sig);
      if (sig != SIGUSR1) break;
      dump(vm, endpoint, root.string() + ".stats");
      std::printf("dumped\n");
      std::fflush(stdout);
    }
    endpoint.stop();
    for (const auto& t : vm.tenants()) vm.close_volume(t);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench serve: %s\n", e.what());
    return 1;
  }
}

}  // namespace perfbench
