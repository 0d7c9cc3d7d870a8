// Workload `ingest`: one caller drives BacklogDb the way the paper's file
// system does (§6.2.1 op mix, 10% dedup, a CP every 2,000 block ops at the
// repo's 1/16 WAFL scale, snapshots, clones, and maintain() every 32 CPs).
//
// Each round records the fsim trace (set-up), replays it into a fresh volume
// (measured), then checks the volume: a sample of point and range owner
// queries against the simulator's images, and the live records of
// scan_all() against the trace. Rounds repeat identical work, so the page
// counts per op repeat exactly across rounds and across runs of one seed.
#include <cstdio>
#include <filesystem>
#include <set>

#include "common.hpp"
#include "fs_trace.hpp"
#include "replay.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace fsim = backlog::fsim;
namespace storage = backlog::storage;

namespace {

struct Probe {
  std::uint64_t first;
  std::uint64_t count;
};

/// The paper's per-volume configuration at 1/16 scale (bench_common.hpp's
/// paper_backlog_options): Bloom filters sized for 2,000 ops per CP and a
/// private 32 MB block cache.
core::BacklogOptions ingest_db_options() {
  core::BacklogOptions o;
  o.expected_ops_per_cp = 2000;
  o.bloom_max_bytes = 32 * 1024;
  o.cache_pages = 8192;
  return o;
}

}  // namespace

int run_ingest(const Options& o) {
  // Rounds repeat until --seconds of replay and query time are measured,
  // and at least kMinRounds times so every p99 has 1,000+ samples. Counts
  // per op come from the first kMinRounds rounds only, which every run at
  // one seed replays identically.
  const std::uint64_t kCps = o.tiny ? 12 : 200;
  const std::uint64_t kMaintainEvery = o.tiny ? 4 : 32;
  const std::size_t kBatchOps = 256;
  const std::size_t kPoints = o.tiny ? 40 : 1000;
  const std::size_t kScans = o.tiny ? 20 : 250;
  const RoundPlan plan{o.seed, o.trace};
  const int kMinRounds = plan.min_rounds(o.tiny ? 2 : 7);
  const int kRecoveries = 200;  // per round

  Report r;
  Tracer tracer;
  HostSpeed host;
  CoreTotals totals, counted;  // all rounds; the first kMinRounds
  Samples setup_s, point_us, scan_us, recovery_s, rss_mb;
  Rate update_rate, query_rate;
  OverheadPairs overhead;
  double traced_wall_s = 0, measured_s = 0, space_sum = 0;
  std::uint64_t page_writes = 0, counted_ops = 0, q_pages = 0, q_count = 0,
                l0_sum = 0;
  core::DbStats end_stats;
  std::vector<std::filesystem::path> dirs;

  for (int round = 0; round < kMinRounds || measured_s < o.seconds; ++round) {
    const bool counts = round < kMinRounds;
    // --- set-up: generate the inputs --------------------------------------
    const std::uint64_t s0 = cpu_ns();
    FsTraceOptions fo;
    fo.seed = plan.seed_of(round);
    fo.cps = kCps;
    FsTrace trace = record_fs_trace(fo);
    setup_s.add(static_cast<double>(cpu_ns() - s0) / 1e9);

    // Probe blocks and ranges, and their reference answers (not set-up:
    // the program never sees them).
    std::vector<Probe> probes;
    backlog::util::Rng rng(fo.seed ^ 0x51ed2701);
    const std::uint64_t max_block = trace.fs->max_block();
    for (std::size_t i = 0; i < kPoints + kScans; ++i) {
      const std::uint64_t len = i < kPoints ? 1 : rng.between(64, 1024);
      const std::uint64_t first = 1 + rng.below(max_block - 1);
      probes.push_back({first, len});
    }
    const std::set<fsim::RefTuple> truth = fsim::ground_truth_refs(*trace.fs);
    const auto live = live_after(trace.ops, trace.ops.size());
    trace.fs.reset();

    const std::filesystem::path dir =
        o.work_dir / ("ingest-" + std::to_string(round));
    std::filesystem::remove_all(dir);
    storage::Env env(dir);
    env.set_sync(false);  // flush policy: no fsync (see README)
    auto db = std::make_unique<core::BacklogDb>(env, ingest_db_options());

    // --- measured: replay every step but the final CP ----------------------
    const bool traced = plan.traced(round);
    tracer.enabled = traced;
    CoreTotals round_totals;
    Replay replay(trace, *db, env, tracer, r, round_totals, kMaintainEvery);
    const double rss0 = begin_peak_rss();
    const storage::IoStats io0 = env.stats();
    const std::uint64_t t0 = now_ns(), c0 = cpu_ns();
    {
      Scope round_span(tracer, "bench.replay");
      while (replay.steps_left() > 1) {
        replay.next(kBatchOps);
        host.tick();
      }
    }
    const double cpu = static_cast<double>(cpu_ns() - c0) / 1e9;
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    tracer.enabled = false;  // traced: the replay and the queries only
    measured_s += wall;
    rss_mb.add(peak_rss_mb() - rss0);
    overhead.add(plan, round, wall);
    if (traced) traced_wall_s += wall;
    update_rate.add(static_cast<double>(round_totals.ops), cpu);
    r.attempt(round_totals.ops + round_totals.cps);
    std::uint64_t round_page_writes = env.stats().page_writes - io0.page_writes;

    // --- recovery: crash before the final CP, reopen, replay the journal ---
    for (int rep = 0; rep < kRecoveries; ++rep) {
      const std::uint64_t a = cpu_ns();
      db.reset();
      db = std::make_unique<core::BacklogDb>(env, ingest_db_options());
      replay.redo_journal(*db);
      recovery_s.add(static_cast<double>(cpu_ns() - a) / 1e9);
    }
    replay.set_db(*db);
    const std::uint64_t final_cp0 = env.stats().page_writes;
    replay.run_all(kBatchOps);  // the final CP
    round_page_writes += env.stats().page_writes - final_cp0;
    if (counts) {
      page_writes += round_page_writes;
      counted_ops += round_totals.ops;
      space_sum += static_cast<double>(dir_bytes(dir)) /
                   static_cast<double>(live.size());
    }

    // --- checks: owner queries (timed) against the simulator's images ------
    const std::uint64_t qio0 = env.stats().page_reads;
    tracer.enabled = traced;
    const std::uint64_t v0 = now_ns();
    const std::int64_t verify_span = tracer.begin("bench.verify", 0);
    double q_s = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      host.tick();
      if (counts) l0_sum += db->quick_stats().l0_runs();
      const std::int64_t span = tracer.begin("core.query", i);
      const storage::IoStats q0 = env.stats();
      const std::uint64_t a = p.count == 1 ? now_ns() : cpu_ns();
      const auto entries = db->query(p.first, p.count);
      const std::uint64_t b = p.count == 1 ? now_ns() : cpu_ns();
      tracer.end(span);
      io_span(tracer, env, span, q0.io_micros);
      q_s += static_cast<double>(b - a) / 1e9;
      (p.count == 1 ? point_us : scan_us).add(static_cast<double>(b - a) / 1e3);
      // Tuples sort by block first: the probe's range is one slice.
      const std::set<fsim::RefTuple> want(
          truth.lower_bound({p.first, 0, 0, 0, 0}),
          truth.lower_bound({p.first + p.count, 0, 0, 0, 0}));
      std::set<fsim::RefTuple> got = answer_tuples(entries, p.first, p.count);
      if (o.plant == "ingest_query" && round == 0 && i == 0) {
        got.emplace(p.first, 999999, 0, 0, 1);  // planted wrong owner
      }
      r.attempt();
      if (got != want) {
        r.fail("ingest: query [" + std::to_string(p.first) + ", +" +
               std::to_string(p.count) + ") returned " +
               std::to_string(got.size()) + " owner tuples, expected " +
               std::to_string(want.size()));
      }
    }
    tracer.end(verify_span);
    tracer.enabled = false;
    const double verify_wall = static_cast<double>(now_ns() - v0) / 1e9;
    if (traced) traced_wall_s += verify_wall;
    if (counts) {
      q_pages += env.stats().page_reads - qio0;
      q_count += probes.size();
    }
    query_rate.add(static_cast<double>(probes.size()), q_s);
    measured_s += verify_wall;

    // --- checks: live records of scan_all() equal the trace's ---------------
    std::map<core::BackrefKey, std::uint64_t> got_live;
    for (const core::CombinedRecord& rec : db->scan_all()) {
      if (!rec.complete()) ++got_live[rec.key];
    }
    if (o.plant == "ingest_scan" && round == 0 && !got_live.empty()) {
      got_live.erase(got_live.begin());  // planted lost reference
    }
    r.attempt();
    if (got_live != live) {
      r.fail("ingest: scan_all holds " + std::to_string(got_live.size()) +
             " live keys, the trace leaves " + std::to_string(live.size()));
    }
    if (counts) {
      counted.merge(round_totals);
      end_stats = db->stats();
    }
    totals.merge(round_totals);
    db.reset();
    settle_disk();
    dirs.push_back(dir);
  }
  remove_dirs(dirs);

  const double ops = static_cast<double>(totals.ops);
  const double f = host.scale();
  host.print();
  if (!o.trace) {
    r.metric("update_ops_per_s", update_rate.per_s() / f, "ops/s", update_rate.rounds);
    r.percentile("update", "_us", totals.batch_us, 50, "us", f);
    r.percentile("update", "_us", totals.batch_us, 99, "us", f);
    r.percentile("query", "_us", point_us, 50, "us", f);
    r.percentile("query", "_us", point_us, 99, "us", f);
    r.percentile("scan", "_us", scan_us, 99, "us", f);
    r.metric("queries_per_s", query_rate.per_s() / f, "q/s", query_rate.rounds);
    r.metric("write_pages_per_op",
             static_cast<double>(page_writes) / static_cast<double>(counted_ops),
             "pages/op");
    r.metric("space_bytes_per_ref", space_sum / kMinRounds, "B");
    r.metric("recovery_s", recovery_s.median() * f, "s", recovery_s.size());
    r.metric("setup_s", setup_s.median() * f, "s", setup_s.size());
    r.metric("peak_rss_mb", rss_mb.median(), "MB", rss_mb.size());
  } else {
    LayerValues v;
    v.time_scale = f;
    v.value["core.apply_ns_per_op"] = static_cast<double>(totals.apply_ns) / ops * f;
    v.value["bench.host_probe_ms"] = host.probe_ms();
    v.samples["core.cp_ms"] = &totals.cp_ms;
    const double cops = static_cast<double>(counted.ops);
    v.value["core.cp_pages_per_op"] = static_cast<double>(counted.cp_pages) / cops;
    v.samples["core.maintain_ms"] = &totals.maintain_ms;
    v.value["core.maintain_share"] =
        static_cast<double>(totals.maintain_ns) / static_cast<double>(totals.busy_ns());
    v.value["core.maintain_pages_per_op"] =
        static_cast<double>(counted.maintain_pages) / cops;
    v.value["core.l0_runs_at_query_mean"] =
        static_cast<double>(l0_sum) / static_cast<double>(q_count);
    v.value["core.ws_entries_peak"] = static_cast<double>(totals.ws_peak);
    v.value["lsm.runs_end"] = static_cast<double>(
        end_stats.from_runs + end_stats.to_runs + end_stats.combined_runs);
    v.value["lsm.bytes_per_record"] =
        static_cast<double>(end_stats.db_bytes) /
        static_cast<double>(std::max<std::uint64_t>(1, end_stats.run_records));
    v.value["storage.read_pages_per_query"] =
        static_cast<double>(q_pages) / static_cast<double>(q_count);
    v.value["bench.trace_overhead_pct"] = overhead.pct();
    v.value["error_frac"] =
        static_cast<double>(r.failed()) / static_cast<double>(r.attempted());
    report_layers(r, v, /*wire=*/false);
    report_self_times(r, tracer, traced_wall_s, /*wire=*/false);
    tracer.dump(o.work_dir / ("spans-ingest-" + std::to_string(o.seed) + ".tsv"));
  }
  r.print();
  return r.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
