#include "replay.hpp"

#include <algorithm>
#include <span>
#include <string>

namespace perfbench {

namespace core = backlog::core;

void io_span(Tracer& tracer, const backlog::storage::Env& env,
             std::int64_t parent, std::uint64_t io_before_us) {
  if (parent < 0) return;
  const Tracer::Span& s = tracer.at(parent);
  const std::uint64_t io_ns = std::min(
      (env.stats().io_micros - io_before_us) * 1000, s.end_ns - s.start_ns);
  if (io_ns != 0) tracer.add("storage.io", s.end_ns - io_ns, s.end_ns, parent, 0);
}

bool Replay::next(std::size_t max_ops, Call* call) {
  if (step_ >= t_.steps.size()) return false;
  const Step& s = t_.steps[step_];
  if (call != nullptr) *call = {s.kind, op_pos_, op_pos_};
  const std::uint64_t io0 = env_.stats().io_micros;

  if (s.kind == Step::Kind::kOps) {
    const std::size_t begin = std::max<std::size_t>(op_pos_, s.a);
    const std::size_t n = std::min<std::size_t>(max_ops, s.b - begin);
    const std::span<const core::Update> batch(t_.ops.data() + begin, n);
    const std::int64_t span = tracer_.begin("core.apply_many", 0);
    const std::uint64_t t0 = cpu_ns();
    db_->apply_many(batch);
    const std::uint64_t t1 = cpu_ns();
    tracer_.end(span);
    io_span(tracer_, env_, span, io0);
    totals_->apply_ns += t1 - t0;
    totals_->batch_us.add(static_cast<double>(t1 - t0) / 1e3);
    totals_->ops += n;
    op_pos_ = begin + n;
    if (op_pos_ >= s.b) ++step_;
    if (call != nullptr) *call = {s.kind, begin, op_pos_};
    return true;
  }

  ++step_;
  if (s.kind == Step::Kind::kCp) {
    totals_->ws_peak = std::max(totals_->ws_peak, db_->quick_stats().ws_entries);
    const std::int64_t span = tracer_.begin("core.consistency_point", 0);
    const std::uint64_t t0 = cpu_ns();
    const core::CpFlushStats cs = db_->consistency_point();
    const std::uint64_t t1 = cpu_ns();
    tracer_.end(span);
    io_span(tracer_, env_, span, io0);
    totals_->cp_ns += t1 - t0;
    totals_->cp_ms.add(static_cast<double>(t1 - t0) / 1e6);
    totals_->cp_pages += cs.pages_written;
    ++totals_->cps;
    journal_step_ = step_;
    if (maintain_every_ != 0 && ++cps_ % maintain_every_ == 0) {
      const std::uint64_t io1 = env_.stats().io_micros;
      const std::int64_t mspan = tracer_.begin("core.maintain", 0);
      const std::uint64_t m0 = cpu_ns();
      const core::MaintenanceStats ms = db_->maintain();
      const std::uint64_t m1 = cpu_ns();
      tracer_.end(mspan);
      io_span(tracer_, env_, mspan, io1);
      totals_->maintain_ns += m1 - m0;
      totals_->maintain_ms.add(static_cast<double>(m1 - m0) / 1e6);
      totals_->maintain_pages += ms.pages_written;
      ++totals_->maintains;
    }
    return true;
  }

  // Registry steps: the recorded return value is the expected answer.
  const std::int64_t span = tracer_.begin("core.registry", 0);
  const std::uint64_t t0 = cpu_ns();
  core::SnapshotRegistry& reg = db_->registry();
  std::uint64_t got = 0, want = 0;
  switch (s.kind) {
    case Step::Kind::kSnapshot:
      got = reg.take_snapshot(s.a);
      want = s.b;
      break;
    case Step::Kind::kDeleteSnapshot:
      reg.delete_snapshot(s.a, s.b);
      break;
    case Step::Kind::kClone:
      got = reg.create_clone(s.a, s.b);
      want = s.c;
      break;
    case Step::Kind::kKillLine:
      reg.kill_line(s.a);
      break;
    default:
      break;
  }
  totals_->registry_ns += cpu_ns() - t0;
  tracer_.end(span);
  report_.attempt();
  if (got != want) {
    report_.fail("registry step returned " + std::to_string(got) +
                 ", the file system got " + std::to_string(want));
  }
  return true;
}

void Replay::redo_journal(core::BacklogDb& db) const {
  core::SnapshotRegistry& reg = db.registry();
  for (std::size_t i = journal_step_; i <= step_ && i < t_.steps.size(); ++i) {
    const Step& s = t_.steps[i];
    if (s.kind == Step::Kind::kOps) {
      const std::size_t end = std::min<std::size_t>(s.b, op_pos_);
      if (end > s.a) {
        db.apply_many(std::span<const core::Update>(t_.ops.data() + s.a, end - s.a));
      }
      continue;
    }
    if (i == step_) break;  // not issued yet
    switch (s.kind) {
      case Step::Kind::kSnapshot:
        reg.take_snapshot(s.a);
        break;
      case Step::Kind::kDeleteSnapshot:
        reg.delete_snapshot(s.a, s.b);
        break;
      case Step::Kind::kClone:
        reg.create_clone(s.a, s.b);
        break;
      case Step::Kind::kKillLine:
        reg.kill_line(s.a);
        break;
      default:
        break;
    }
  }
}

}  // namespace perfbench
