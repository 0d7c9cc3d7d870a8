// Workload `query_aged`: one caller queries a volume aged during set-up,
// with small update batches beside the reads.
//
// Set-up ages a fresh volume with 250 paper-sized CPs (no clones) and
// maintains it. The measured phase issues a fixed sequence of owner
// queries (99% Zipf-skewed point lookups favouring recently allocated
// blocks, 1% sequential range scans of 64-1024 blocks) and applies one
// 64-op update batch from the trace's continuation every 32 queries, with a
// CP every 8 batches and maintain() every 32 CPs, so the Level-0 run count
// cycles the way Fig. 9's staleness arms do. Reads go through a 4 MB
// block cache (one LRU stripe, so eviction order is deterministic) that the
// aged run files outgrow several times over.
//
// Round 0 also keeps a baseline::NaiveBackrefs table in lock-step with the
// volume and checks every 16th query against it.
#include <cstdio>
#include <filesystem>
#include <set>

#include "baseline/naive_backrefs.hpp"
#include "common.hpp"
#include "fs_trace.hpp"
#include "replay.hpp"
#include "service/volume_manager.hpp"
#include "storage/block_cache.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace fsim = backlog::fsim;
namespace storage = backlog::storage;

namespace {

constexpr std::uint64_t kAgeCps = 250;          // paper-sized CPs of ageing
constexpr std::uint64_t kBatchOps = 64;
constexpr std::uint64_t kQueriesPerBatch = 32;
constexpr std::uint64_t kBatchesPerCp = 8;
constexpr std::uint64_t kMaintainEvery = 32;    // CPs
constexpr std::uint64_t kCacheBytes = 4u << 20;
constexpr std::uint64_t kCheckEvery = 16;       // queries
constexpr int kRecoveries = 300;                // per round

/// The naive table's answer as owner tuples: each record is visible in the
/// retained versions its [from, to) covers, which is what BacklogDb's
/// masked query reports. Records are compared by visibility, not by their
/// [from, to) bounds: the write store legitimately merges a remove and a
/// re-add of one key inside a CP into one longer record.
std::set<fsim::RefTuple> reference(backlog::baseline::NaiveBackrefs& naive,
                                   const core::SnapshotRegistry& reg,
                                   std::uint64_t first, std::uint64_t count) {
  std::set<fsim::RefTuple> out;
  for (const core::CombinedRecord& r : naive.query(first, count)) {
    for (const core::Epoch v : reg.valid_versions_in(r.key.line, r.from, r.to)) {
      out.emplace(r.key.block, r.key.inode, r.key.offset, r.key.line, v);
    }
  }
  return out;
}

void feed(backlog::baseline::NaiveBackrefs& naive, const FsTrace& t,
          const Replay::Call& c) {
  if (c.kind == Step::Kind::kCp) {
    naive.on_consistency_point();
    return;
  }
  for (std::size_t i = c.op_begin; i < c.op_end; ++i) {
    const core::Update& u = t.ops[i];
    if (u.kind == core::Update::Kind::kAdd) {
      naive.add_reference(u.key);
    } else {
      naive.remove_reference(u.key);
    }
  }
}

}  // namespace

int run_query_aged(const Options& o) {
  // Rounds repeat until --seconds of queries and updates are measured, and
  // at least three times (set-up and recovery are medians of rounds).
  // Counts per op and per query come from the first kMinRounds rounds
  // only, which every run at one seed replays identically. Round 0 also
  // feeds the reference table beside every call, which slowed its CPs
  // twofold, so its query, update and CP times are left out and its
  // measured time does not count towards --seconds.
  const std::uint64_t kQueries = o.tiny ? 2000 : 250000;  // per round
  const std::uint64_t age_cps = o.tiny ? 20 : kAgeCps;
  const RoundPlan plan{o.seed, o.trace};
  const int kMinRounds = plan.min_rounds(o.tiny ? 2 : 3);
  // The tail feeds the measured phase, then at most one maintenance cycle
  // up to the crash point.
  const std::uint64_t tail_cps =
      kQueries / kQueriesPerBatch / kBatchesPerCp + 2 + kMaintainEvery;

  Report r;
  Tracer tracer;
  HostSpeed host;
  CoreTotals totals, counted;  // timed rounds; the first kMinRounds
  Samples setup_s, point_us, scan_us, recovery_s, rss_mb;
  Rate update_rate, query_rate;
  OverheadPairs overhead;
  double traced_wall_s = 0, measured_s = 0, space_sum = 0;
  std::uint64_t page_writes = 0, q_pages = 0, q_count = 0, l0_sum = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t rc_hits = 0, rc_lookups = 0;
  core::DbStats end_stats;
  std::vector<std::filesystem::path> dirs;

  for (int round = 0; round < kMinRounds || measured_s < o.seconds; ++round) {
    // --- set-up: record the trace and age the volume ----------------------
    const std::filesystem::path dir =
        o.work_dir / ("query_aged-" + std::to_string(round));
    std::filesystem::remove_all(dir);
    const std::uint64_t s0 = cpu_ns();
    FsTraceOptions fo;
    fo.seed = plan.seed_of(round);
    fo.cps = age_cps;
    fo.tail_cps = tail_cps;
    fo.tail_ops_per_cp = kBatchOps * kBatchesPerCp;
    fo.clones = false;  // the naive reference knows no inheritance
    FsTrace trace = record_fs_trace(fo);
    const std::uint64_t max_block = trace.fs->max_block();
    trace.fs.reset();
    storage::BlockCache cache(kCacheBytes, /*shards=*/1);
    storage::Env env(dir / "volume");
    env.set_sync(false);  // flush policy: no fsync (see README)
    core::BacklogOptions dbo;
    dbo.expected_ops_per_cp = 2000;
    dbo.shared_cache = &cache;
    dbo.result_cache_entries =
        backlog::service::CacheOptions{}.result_cache_entries;
    auto db = std::make_unique<core::BacklogDb>(env, dbo);
    env.set_block_cache(&cache);
    CoreTotals age, round_totals;
    Replay replay(trace, *db, env, tracer, r, age, 32);
    while (age.cps < age_cps) replay.next(256);
    db->maintain();
    replay.set_totals(round_totals);
    replay.set_maintain_every(kMaintainEvery);
    setup_s.add(static_cast<double>(cpu_ns() - s0) / 1e9);
    if (round == 0) {
      std::printf("aged volume: %.1f MB of run files, %.1fx the %llu MB block "
                  "cache\n",
                  static_cast<double>(db->stats().db_bytes) / (1 << 20),
                  static_cast<double>(db->stats().db_bytes) / kCacheBytes,
                  static_cast<unsigned long long>(kCacheBytes >> 20));
    }

    // The reference table: round 0 only, and not part of the program's
    // set-up time.
    std::unique_ptr<storage::Env> naive_env;
    std::unique_ptr<backlog::baseline::NaiveBackrefs> naive;
    if (round == 0) {
      naive_env = std::make_unique<storage::Env>(dir / "naive");
      naive_env->set_sync(false);
      backlog::baseline::NaiveOptions no;
      no.cache_pages = 16384;
      naive = std::make_unique<backlog::baseline::NaiveBackrefs>(*naive_env, no);
      std::uint64_t cps = 0;
      for (const Step& s : trace.steps) {
        if (cps == age_cps) break;
        if (s.kind == Step::Kind::kCp) {
          feed(*naive, trace, {Step::Kind::kCp, 0, 0});
          ++cps;
        } else if (s.kind == Step::Kind::kOps) {
          feed(*naive, trace, {Step::Kind::kOps, s.a, s.b});
        }
      }
    }
    // The ageing left about 18 MB of dirty pages; written back in the
    // background they slowed the measured CPs by up to half (CP times of
    // whole rounds moved by that much), so they are written back now.
    settle_disk();

    // --- measured: queries with update batches beside them -----------------
    const bool traced = plan.traced(round);
    tracer.enabled = traced;  // the measured phase only
    const bool counts = round < kMinRounds;
    const bool timed = round > 0;
    Samples round_point_us, round_scan_us;
    const double rss0 = begin_peak_rss();
    backlog::util::Rng rng(fo.seed * 31 + 7);
    const backlog::util::ZipfSampler zipf(max_block - 1, 0.9);
    std::uint64_t cursor = 1, busy_ns = 0;
    const storage::IoStats io0 = env.stats();
    const std::uint64_t t0 = now_ns();
    const std::int64_t round_span = tracer.begin("bench.round", 0);
    for (std::uint64_t q = 0; q < kQueries; ++q) {
      if (q % kQueriesPerBatch == 0) {
        host.tick();
        Replay::Call c;
        do {
          const std::uint64_t a = cpu_ns();
          if (!replay.next(kBatchOps, &c)) break;
          busy_ns += cpu_ns() - a;
          if (naive != nullptr) feed(*naive, trace, c);
        } while (c.kind != Step::Kind::kOps);
      }
      std::uint64_t first = 0, count = 1;
      if (rng.below(100) == 0) {
        count = rng.between(64, 1024);
        if (cursor + count > max_block) cursor = 1;
        first = cursor;
        cursor += count;
      } else {
        first = max_block - zipf.sample(rng);
      }
      if (counts) l0_sum += db->quick_stats().l0_runs();
      const storage::BlockCacheStats c0 = cache.stats();
      const storage::IoStats q0 = env.stats();
      const std::int64_t span = tracer.begin("core.query", q);
      const std::uint64_t a = count == 1 ? now_ns() : cpu_ns();
      const auto entries = db->query(first, count);
      const std::uint64_t b = count == 1 ? now_ns() : cpu_ns();
      tracer.end(span);
      io_span(tracer, env, span, q0.io_micros);
      busy_ns += b - a;
      const storage::BlockCacheStats c1 = cache.stats();
      if (counts) {
        q_pages += env.stats().page_reads - q0.page_reads;
        cache_hits += c1.hits - c0.hits;
        cache_misses += c1.misses - c0.misses;
        cache_evictions += c1.evictions - c0.evictions;
      }
      (count == 1 ? round_point_us : round_scan_us).add(static_cast<double>(b - a) / 1e3);
      r.attempt();
      if (naive != nullptr && q % kCheckEvery == 0) {
        std::set<fsim::RefTuple> got = answer_tuples(entries, first, count);
        if (o.plant == "query_ref" && q == 0) {  // planted wrong owner
          got.emplace(first, 999999, 0, 0, db->current_cp());
        }
        if (got != reference(*naive, db->registry(), first, count)) {
          r.fail("query_aged: query [" + std::to_string(first) + ", +" +
                 std::to_string(count) + ") disagrees with the naive table");
        }
      }
    }
    tracer.end(round_span);
    tracer.enabled = false;
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    if (timed) {
      totals.merge(round_totals);
      point_us.append(round_point_us);
      scan_us.append(round_scan_us);
      measured_s += wall;
    }
    rss_mb.add(peak_rss_mb() - rss0);
    if (traced) traced_wall_s += wall;
    // Round 0 also feeds the naive table, so its pair is not comparable.
    overhead.add(plan, round, wall, round >= 2);
    const double busy_s = static_cast<double>(busy_ns) / 1e9;
    if (timed) {
      query_rate.add(static_cast<double>(kQueries), busy_s);
      update_rate.add(static_cast<double>(round_totals.ops), busy_s);
    }
    r.attempt(round_totals.ops);
    if (counts) {
      q_count += kQueries;
      page_writes += env.stats().page_writes - io0.page_writes;
      counted.merge(round_totals);
      const core::ResultCacheStats rc = db->result_cache_stats();
      rc_hits += rc.hits;
      rc_lookups += rc.hits + rc.misses;
      end_stats = db->stats();
      space_sum += static_cast<double>(dir_bytes(dir / "volume")) /
                   static_cast<double>(live_after(trace.ops, replay.op_pos()).size());
    }

    // --- recovery: drop the db without a CP, reopen, replay the journal ----
    // A reopen costs more the more Level-0 runs there are, and that count
    // cycles with maintain(). So every round crashes at the cycle's peak,
    // halfway through the last CP window before a maintain(): the trace's
    // continuation is replayed, untimed, up to there.
    CoreTotals after;
    replay.set_totals(after);
    while ((round_totals.cps + after.cps) % kMaintainEvery != kMaintainEvery - 1 &&
           replay.next(kBatchOps)) {
    }
    for (std::uint64_t batches = 0; batches < kBatchesPerCp / 2;) {
      Replay::Call c;
      if (!replay.next(kBatchOps, &c)) break;
      if (c.kind == Step::Kind::kOps) ++batches;
    }
    for (int rep = 0; rep < kRecoveries; ++rep) {
      const std::uint64_t a = cpu_ns();
      db.reset();
      db = std::make_unique<core::BacklogDb>(env, dbo);
      replay.redo_journal(*db);
      recovery_s.add(static_cast<double>(cpu_ns() - a) / 1e9);
    }
    db.reset();
    naive.reset();
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
             static_cast<double>(page_writes) / static_cast<double>(counted.ops),
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
    v.value["core.maintain_share"] = static_cast<double>(totals.maintain_ns) /
                                     static_cast<double>(totals.busy_ns());
    v.value["core.maintain_pages_per_op"] =
        static_cast<double>(counted.maintain_pages) / cops;
    v.value["core.l0_runs_at_query_mean"] =
        static_cast<double>(l0_sum) / static_cast<double>(q_count);
    v.value["core.result_cache_hit_ratio"] =
        rc_lookups == 0 ? 0.0 : static_cast<double>(rc_hits) / static_cast<double>(rc_lookups);
    v.value["core.ws_entries_peak"] = static_cast<double>(totals.ws_peak);
    v.value["lsm.runs_end"] = static_cast<double>(
        end_stats.from_runs + end_stats.to_runs + end_stats.combined_runs);
    v.value["lsm.bytes_per_record"] =
        static_cast<double>(end_stats.db_bytes) /
        static_cast<double>(std::max<std::uint64_t>(1, end_stats.run_records));
    v.value["storage.read_pages_per_query"] =
        static_cast<double>(q_pages) / static_cast<double>(q_count);
    const std::uint64_t lookups = cache_hits + cache_misses;
    v.value["storage.cache_hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(lookups);
    v.value["storage.cache_evictions_per_query"] =
        static_cast<double>(cache_evictions) / static_cast<double>(q_count);
    v.value["bench.trace_overhead_pct"] = overhead.pct();
    v.value["error_frac"] =
        static_cast<double>(r.failed()) / static_cast<double>(r.attempted());
    report_layers(r, v, /*wire=*/false);
    report_self_times(r, tracer, traced_wall_s, /*wire=*/false);
    tracer.dump(o.work_dir / ("spans-query_aged-" + std::to_string(o.seed) + ".tsv"));
  }
  r.print();
  return r.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
