// Replays a recorded file-system trace into a BacklogDb, one library call at
// a time, timing each call in thread CPU time (cpu_ns) and tallying the core
// layer's own counters.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common.hpp"
#include "core/backlog_db.hpp"
#include "fs_trace.hpp"
#include "storage/env.hpp"

namespace perfbench {

/// What the replayed calls cost, summed over every Replay that shares it.
struct CoreTotals {
  Samples batch_us;     ///< one apply_many call
  Samples cp_ms;        ///< one consistency_point call
  Samples maintain_ms;  ///< one maintain call
  std::uint64_t ops = 0, cps = 0, maintains = 0;
  std::uint64_t apply_ns = 0, cp_ns = 0, maintain_ns = 0, registry_ns = 0;
  std::uint64_t cp_pages = 0;        ///< CpFlushStats::pages_written
  std::uint64_t maintain_pages = 0;  ///< MaintenanceStats::pages_written
  std::uint64_t ws_peak = 0;         ///< write-store entries before a CP

  void merge(const CoreTotals& o) {
    batch_us.append(o.batch_us);
    cp_ms.append(o.cp_ms);
    maintain_ms.append(o.maintain_ms);
    ops += o.ops;
    cps += o.cps;
    maintains += o.maintains;
    apply_ns += o.apply_ns;
    cp_ns += o.cp_ns;
    maintain_ns += o.maintain_ns;
    registry_ns += o.registry_ns;
    cp_pages += o.cp_pages;
    maintain_pages += o.maintain_pages;
    ws_peak = std::max(ws_peak, o.ws_peak);
  }

  /// Thread CPU time spent inside the library calls.
  [[nodiscard]] std::uint64_t busy_ns() const {
    return apply_ns + cp_ns + maintain_ns + registry_ns;
  }
};

/// Adds a "storage.io" child span under the finished span `parent` (when
/// tracing) covering the Env syscall time accrued since `io_before_us`,
/// placed at the span's end and clamped to it (the Env counts whole
/// microseconds).
void io_span(Tracer& tracer, const backlog::storage::Env& env,
             std::int64_t parent, std::uint64_t io_before_us);

class Replay {
 public:
  /// `maintain_every` > 0 runs maintain() after every that many CPs.
  Replay(const FsTrace& trace, backlog::core::BacklogDb& db,
         backlog::storage::Env& env, Tracer& tracer, Report& report,
         CoreTotals& totals, std::uint64_t maintain_every)
      : t_(trace), db_(&db), env_(env), tracer_(tracer), report_(report),
        totals_(&totals), maintain_every_(maintain_every) {}

  /// What one next() call did: a CP (kind kCp), a registry step, or
  /// apply_many over ops [op_begin, op_end) (kind kOps).
  struct Call {
    Step::Kind kind = Step::Kind::kOps;
    std::size_t op_begin = 0, op_end = 0;
  };

  /// Issues the next library call: apply_many over at most `max_ops` ops of
  /// the current op range, or the next CP / registry step. Returns false
  /// once the trace is exhausted.
  bool next(std::size_t max_ops, Call* call = nullptr);

  /// Later calls go to `db` (a reopened volume) instead.
  void set_db(backlog::core::BacklogDb& db) { db_ = &db; }
  [[nodiscard]] std::size_t steps_left() const { return t_.steps.size() - step_; }

  /// Tallies later calls into `totals` instead.
  void set_totals(CoreTotals& totals) { totals_ = &totals; }

  /// Ops replayed so far.
  [[nodiscard]] std::size_t op_pos() const { return op_pos_; }

  /// Re-issues into `db` — a volume reopened after a crash — everything
  /// replayed since the last CP: the journal a file system replays on
  /// recovery (§5.4), block ops and snapshot-registry calls alike.
  void redo_journal(backlog::core::BacklogDb& db) const;

  /// Runs maintain() after every `n` CPs from now on (0 = never).
  void set_maintain_every(std::uint64_t n) {
    maintain_every_ = n;
    cps_ = 0;
  }

  /// Runs next() until the trace ends.
  void run_all(std::size_t max_ops) {
    while (next(max_ops)) {
    }
  }

 private:
  const FsTrace& t_;
  backlog::core::BacklogDb* db_;
  backlog::storage::Env& env_;
  Tracer& tracer_;
  Report& report_;
  CoreTotals* totals_;
  std::uint64_t maintain_every_;
  std::size_t step_ = 0;
  std::size_t op_pos_ = 0;  // next op inside the current kOps step
  std::size_t journal_step_ = 0;  // first step after the last CP
  std::uint64_t cps_ = 0;
};

}  // namespace perfbench
