#include "net/render.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "lsm/run_file.hpp"

namespace backlog::net {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// printf onto the end of `out`, sized by a first vsnprintf pass so no
/// field (a 255-byte tenant name, say) is ever cut short.
void appendf(std::string& out, const char* fmt, ...) {
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

}  // namespace

std::string render_info(core::BacklogDb& db, const std::string& label) {
  std::string out;
  const auto s = db.stats();
  appendf(out, "volume:            %s\n", label.c_str());
  appendf(out, "current CP:        %" PRIu64 "\n", db.current_cp());
  appendf(out, "partitions:        %" PRIu64 "\n", s.partitions);
  appendf(out, "runs:              %" PRIu64 " From, %" PRIu64 " To, %" PRIu64
               " Combined\n", s.from_runs, s.to_runs, s.combined_runs);
  appendf(out, "run records:       %" PRIu64 "\n", s.run_records);
  appendf(out, "db bytes:          %" PRIu64 " (%.2f MB)\n", s.db_bytes,
          s.db_bytes / (1024.0 * 1024.0));
  appendf(out, "deletion vectors:  %" PRIu64 " entries\n", s.dv_entries);
  const auto& reg = db.registry();
  appendf(out, "zombie snapshots:  %zu\n", reg.zombie_count());
  for (const core::LineId line : reg.lines()) {
    appendf(out, "line %" PRIu64 ": %s", line,
            reg.line_live(line) ? "live" : "dead");
    if (const auto parent = reg.parent_of(line)) {
      appendf(out, ", cloned from (line %" PRIu64 ", v%" PRIu64 ")",
              parent->parent, parent->branch_version);
    }
    out += ", snapshots:";
    for (const core::Epoch v : reg.snapshots(line)) {
      appendf(out, " %" PRIu64, v);
    }
    out += "\n";
  }
  return out;
}

std::string render_runs(storage::Env& env) {
  std::string out;
  appendf(out, "%-26s %10s %14s\n", "file", "records", "bytes");
  storage::BlockCache cache(64 * storage::kPageSize, /*shards=*/1);
  for (const std::string& name : env.list_files()) {
    if (!name.ends_with(".run")) continue;
    lsm::RunFile run(env, name, cache);
    appendf(out, "%-26s %10" PRIu64 " %14" PRIu64, name.c_str(),
            run.record_count(), run.size_bytes());
    if (const auto mn = run.min_record()) {
      appendf(out, "   blocks [%" PRIu64 ", %" PRIu64 "]",
              util::get_be64(mn->data()),
              util::get_be64(run.max_record()->data()));
    }
    out += "\n";
  }
  return out;
}

std::string render_query(const std::vector<core::BackrefEntry>& entries) {
  std::string out;
  for (const auto& e : entries) {
    appendf(out, "  %s versions:", core::to_string(e.rec).c_str());
    for (const core::Epoch v : e.versions) appendf(out, " %" PRIu64, v);
    out += "\n";
  }
  return out;
}

std::string render_records(const std::vector<core::CombinedRecord>& records,
                           bool indent) {
  std::string out;
  for (const auto& r : records) {
    appendf(out, "%s%s\n", indent ? "  " : "", core::to_string(r).c_str());
  }
  return out;
}

std::string render_maintenance(const core::MaintenanceStats& m) {
  std::string out;
  appendf(out, "input records:   %" PRIu64 "\n", m.input_records);
  appendf(out, "complete out:    %" PRIu64 "\n", m.output_complete);
  appendf(out, "incomplete out:  %" PRIu64 "\n", m.output_incomplete);
  appendf(out, "purged:          %" PRIu64 "\n", m.purged);
  appendf(out, "bytes:           %" PRIu64 " -> %" PRIu64 "\n", m.bytes_before,
          m.bytes_after);
  appendf(out, "io:              %" PRIu64 " reads, %" PRIu64 " writes\n",
          m.pages_read, m.pages_written);
  appendf(out, "wall time:       %.3f s\n", m.wall_micros / 1e6);
  return out;
}

std::string render_dump_run(storage::Env& env, const std::string& file) {
  std::string out;
  storage::BlockCache cache(256 * storage::kPageSize, /*shards=*/1);
  lsm::RunFile run(env, file, cache);
  const char kind = file.empty() ? '?' : file[0];
  auto stream = run.scan();
  while (stream->valid()) {
    const auto rec = stream->record();
    if (kind == 'c' && rec.size() == core::kCombinedRecordSize) {
      appendf(out, "%s\n",
              core::to_string(core::decode_combined(rec.data())).c_str());
    } else if (kind == 'f' && rec.size() == core::kFromRecordSize) {
      const auto r = core::decode_from(rec.data());
      appendf(out, "%s from=%" PRIu64 "\n", core::to_string(r.key).c_str(),
              r.from);
    } else if (kind == 't' && rec.size() == core::kToRecordSize) {
      const auto r = core::decode_to(rec.data());
      appendf(out, "%s to=%" PRIu64 "\n", core::to_string(r.key).c_str(), r.to);
    } else {
      appendf(out, "(%zu raw bytes)\n", rec.size());
    }
    stream->next();
  }
  return out;
}

namespace {

/// One tenant object of the `stats --json` output (the caller prints the
/// key). Latencies are the log2 histogram's conservative percentiles.
void append_tenant_json(std::string& out, const service::TenantStats& ts) {
  appendf(out,
          "{\"shard\":%zu,\"updates\":%" PRIu64 ",\"batches\":%" PRIu64
          ",\"cps\":%" PRIu64 ",\"queries\":%" PRIu64 ",\"snapshots\":%" PRIu64
          ",\"clones\":%" PRIu64 ",\"migrations\":%" PRIu64
          ",\"maintenance_runs\":%" PRIu64 ",\"maintenance_skipped\":%" PRIu64
          ",\"throttle_queued\":%" PRIu64 ",\"throttle_rejected\":%" PRIu64
          ",\"owned_bytes\":%" PRIu64 ",\"shared_bytes\":%" PRIu64,
          ts.shard, ts.updates, ts.batches, ts.cps, ts.queries, ts.snapshots,
          ts.clones, ts.migrations, ts.maintenance_runs,
          ts.maintenance_skipped, ts.throttle_queued, ts.throttle_rejected,
          ts.owned_bytes, ts.shared_bytes);
  appendf(out,
          ",\"update_batch_p50_us\":%" PRIu64 ",\"update_batch_p99_us\":%" PRIu64
          ",\"query_p50_us\":%" PRIu64 ",\"query_p99_us\":%" PRIu64
          ",\"queue_wait_p99_us\":%" PRIu64 ",\"io\":{\"page_reads\":%" PRIu64
          ",\"page_writes\":%" PRIu64 ",\"bytes_read\":%" PRIu64
          ",\"bytes_written\":%" PRIu64 ",\"fsyncs\":%" PRIu64 "}}",
          ts.update_batch_micros.p50(), ts.update_batch_micros.p99(),
          ts.query_micros.p50(), ts.query_micros.p99(),
          ts.queue_wait_micros.p99(), ts.io.page_reads, ts.io.page_writes,
          ts.io.bytes_read, ts.io.bytes_written, ts.io.fsyncs);
}

}  // namespace

std::string render_stats(const service::ServiceStats& stats, bool json) {
  std::string out;
  if (json) {
    out += "{\"tenants\":{";
    bool first = true;
    for (const auto& [name, ts] : stats.tenants) {
      if (!first) out += ",";
      first = false;
      appendf(out, "\"%s\":", name.c_str());
      append_tenant_json(out, ts);
    }
    out += "},\"total\":";
    append_tenant_json(out, stats.total);
    out += "}\n";
    return out;
  }
  appendf(out, "%-20s %6s %10s %8s %8s %10s %12s %8s\n", "tenant", "shard",
          "updates", "cps", "queries", "maint", "page_writes", "fsyncs");
  for (const auto& [name, ts] : stats.tenants) {
    appendf(out, "%-20s %6zu %10" PRIu64 " %8" PRIu64 " %8" PRIu64
                 " %10" PRIu64 " %12" PRIu64 " %8" PRIu64 "\n",
            name.c_str(), ts.shard, ts.updates, ts.cps, ts.queries,
            ts.maintenance_runs, ts.io.page_writes, ts.io.fsyncs);
  }
  const auto& t = stats.total;
  appendf(out, "total: %" PRIu64 " updates, %" PRIu64 " cps, %" PRIu64
               " queries; query p50/p99 %" PRIu64 "/%" PRIu64
               " us, queue wait p99 %" PRIu64 " us\n",
          t.updates, t.cps, t.queries, t.query_micros.p50(),
          t.query_micros.p99(), t.queue_wait_micros.p99());
  return out;
}

std::string render_cache(const service::VolumeManager::CacheReport& report,
                         bool json) {
  const auto& b = report.block;
  std::string out;
  if (json) {
    appendf(out,
            "{\"block\":{\"shared\":%s,\"capacity_bytes\":%" PRIu64
            ",\"shards\":%" PRIu64 ",\"entries\":%" PRIu64
            ",\"bytes\":%" PRIu64 ",\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
            ",\"hit_ratio\":%.4f,\"evictions\":%" PRIu64
            ",\"invalidations\":%" PRIu64 "},\"tenants\":{",
            report.block_shared ? "true" : "false", b.capacity_bytes,
            b.shards, b.entries, b.bytes, b.hits, b.misses, b.hit_ratio(),
            b.evictions, b.invalidations);
    bool first = true;
    for (const auto& row : report.tenants) {
      if (!first) out += ",";
      first = false;
      appendf(out,
              "\"%s\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
              ",\"stale_hits\":%" PRIu64 ",\"entries\":%" PRIu64
              ",\"capacity\":%" PRIu64 ",\"hit_ratio\":%.4f}",
              row.tenant.c_str(), row.result.hits, row.result.misses,
              row.result.stale_hits, row.result.entries, row.result.capacity,
              row.result.hit_ratio());
    }
    out += "}}\n";
    return out;
  }
  appendf(out,
          "block cache:   %s, %.1f MiB budget, %" PRIu64 " shards\n",
          report.block_shared ? "shared" : "per-volume (legacy)",
          static_cast<double>(b.capacity_bytes) / (1u << 20), b.shards);
  appendf(out,
          "  resident:    %" PRIu64 " pages (%.1f MiB)\n", b.entries,
          static_cast<double>(b.bytes) / (1u << 20));
  appendf(out,
          "  hits/misses: %" PRIu64 "/%" PRIu64 " (ratio %.3f)\n", b.hits,
          b.misses, b.hit_ratio());
  appendf(out,
          "  evicted:     %" PRIu64 ", invalidated: %" PRIu64 "\n",
          b.evictions, b.invalidations);
  appendf(out, "%-20s %10s %10s %8s %8s %8s\n", "tenant", "res_hits",
          "res_miss", "stale", "entries", "cap");
  for (const auto& row : report.tenants) {
    appendf(out,
            "%-20s %10" PRIu64 " %10" PRIu64 " %8" PRIu64 " %8" PRIu64
            " %8" PRIu64 "\n",
            row.tenant.c_str(), row.result.hits, row.result.misses,
            row.result.stale_hits, row.result.entries, row.result.capacity);
  }
  return out;
}

std::string render_trace(const std::vector<service::TraceSpan>& spans,
                         const std::vector<service::TraceSpan>& slow,
                         std::uint64_t sample, std::uint64_t slow_us) {
  std::string out;
  constexpr std::size_t kDumpCap = 64;
  const std::size_t from =
      spans.size() > kDumpCap ? spans.size() - kDumpCap : 0;
  appendf(out, "sampled spans: %zu recorded (1 in %" PRIu64
               "), showing newest %zu\n",
          spans.size(), sample, spans.size() - from);
  for (std::size_t i = from; i < spans.size(); ++i) {
    appendf(out, "%s\n", service::format_span(spans[i]).c_str());
  }
  appendf(out, "slow-op log (>= %" PRIu64 " us): %zu entries\n", slow_us,
          slow.size());
  for (const auto& s : slow) {
    appendf(out, "%s\n", service::format_span(s).c_str());
  }
  return out;
}

std::string render_balance(const BalanceReport& report) {
  std::string out;
  appendf(out, "%zu volumes on %zu shards; %zu balancer cycles\n",
          report.volumes, report.shards, report.cycles.size());
  for (std::size_t c = 0; c < report.cycles.size(); ++c) {
    const auto& cycle = report.cycles[c];
    for (const auto& m : cycle.moves) {
      appendf(out, "cycle %zu: moved %s shard %zu -> %zu "
                   "(imbalance %.3f -> %.3f)\n",
              c + 1, m.tenant.c_str(), m.from_shard, m.to_shard,
              m.imbalance_before, m.imbalance_after);
    }
    if (cycle.moves.empty()) {
      appendf(out, "cycle %zu: balanced (imbalance %.3f)\n", c + 1,
              cycle.imbalance);
    }
  }
  appendf(out, "%-20s %6s\n", "tenant", "shard");
  for (const auto& p : report.placements) {
    appendf(out, "%-20s %6zu\n", p.tenant.c_str(), p.shard);
  }
  appendf(out, "moves: %" PRIu64 ", final imbalance %.3f\n", report.moves,
          report.final_imbalance);
  return out;
}

}  // namespace backlog::net
