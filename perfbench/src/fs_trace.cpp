#include "fs_trace.hpp"

#include <algorithm>
#include <deque>

#include "fsim/backref_sink.hpp"
#include "fsim/workload.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace fsim = backlog::fsim;

namespace {

/// Records the file system's callbacks in call order.
class RecordingSink final : public fsim::BackrefSink {
 public:
  explicit RecordingSink(FsTrace& t) : t_(t) {}

  void add_reference(const core::BackrefKey& key) override {
    t_.ops.push_back({core::Update::Kind::kAdd, key});
  }
  void remove_reference(const core::BackrefKey& key) override {
    t_.ops.push_back({core::Update::Kind::kRemove, key});
  }
  fsim::SinkCpStats on_consistency_point() override {
    step({Step::Kind::kCp, 0, 0, 0});
    ++t_.cps;
    return {};
  }
  [[nodiscard]] bool advances_cp() const override { return false; }
  [[nodiscard]] std::uint64_t db_bytes() const override { return 0; }

  /// Closes the pending op range as one kOps step.
  void flush_ops() {
    if (t_.ops.size() > flushed_) {
      t_.steps.push_back({Step::Kind::kOps, flushed_, t_.ops.size(), 0});
      flushed_ = t_.ops.size();
    }
  }
  void step(const Step& s) {
    flush_ops();
    t_.steps.push_back(s);
  }

 private:
  FsTrace& t_;
  std::uint64_t flushed_ = 0;
};

}  // namespace

FsTrace record_fs_trace(const FsTraceOptions& o) {
  FsTrace t;
  RecordingSink sink(t);
  fsim::FsimOptions fo;
  fo.ops_per_cp = o.ops_per_cp;
  fo.rng_seed = o.seed;
  t.fs = std::make_unique<fsim::FileSystem>(fo, sink);
  fsim::FileSystem& fs = *t.fs;

  fsim::WorkloadOptions wl;
  wl.seed = o.seed * 7919 + 1;
  fsim::WorkloadGenerator gen(fs, 0, wl);
  backlog::util::Rng rng(o.seed * 104729 + 3);

  std::deque<core::Epoch> hourly, nightly;
  struct Clone {
    core::LineId line;
    std::unique_ptr<fsim::WorkloadGenerator> gen;
  };
  std::deque<Clone> clones;

  // Per CP window: block writes, then the snapshot and clone events, then
  // the CP — a snapshot captures the state of the CP it is taken in.
  // Snapshot retention of §6.1 (fsim::SnapshotScheduler's policy): a
  // nightly every 48 paper-sized CPs, else an hourly every 6; keep four of
  // each. The cadence counts block writes, so the smaller CPs of a tail
  // phase keep the same snapshot rate per op.
  const std::uint64_t hour_ops = 6 * o.ops_per_cp;
  std::uint64_t written = 0;
  for (std::uint64_t cp = 1; cp <= o.cps + o.tail_cps; ++cp) {
    const std::uint64_t n = cp <= o.cps ? o.ops_per_cp : o.tail_ops_per_cp;
    gen.run_block_writes(n);
    const bool hour = (written + n) / hour_ops != written / hour_ops;
    const bool night = (written + n) / (8 * hour_ops) != written / (8 * hour_ops);
    written += n;
    std::deque<core::Epoch>* keep = night ? &nightly : hour ? &hourly : nullptr;
    if (keep != nullptr) {
      const core::Epoch v = fs.take_snapshot(0);
      sink.step({Step::Kind::kSnapshot, 0, v, 0});
      keep->push_back(v);
      if (keep->size() > 4) {
        fs.delete_snapshot(0, keep->front());
        sink.step({Step::Kind::kDeleteSnapshot, 0, keep->front(), 0});
        keep->pop_front();
      }
    }

    // Clone churn at fsim::CloneChurner's rate, ~7 clones per 100 CPs, but
    // on a fixed cadence (one every 14 CPs) instead of a coin toss per CP:
    // a clone's kill records every inherited reference's remove, so a
    // random clone count made a trace's op count vary by +-12% from seed
    // to seed, and every count and timing with it. At most four live, each
    // dirtied with 64 block writes.
    if (o.clones && cp % 14 == 0 && !hourly.empty()) {
      if (clones.size() >= 4) {
        fs.delete_clone_head(clones.front().line);  // records its removes
        sink.step({Step::Kind::kKillLine, clones.front().line, 0, 0});
        clones.pop_front();
      }
      const core::Epoch v = hourly[rng.below(hourly.size())];
      const core::LineId line = fs.create_clone(0, v);
      sink.step({Step::Kind::kClone, 0, v, line});
      fsim::WorkloadOptions cwl = wl;
      cwl.seed = rng.next();
      auto cgen = std::make_unique<fsim::WorkloadGenerator>(fs, line, cwl);
      cgen->adopt_existing_files();
      cgen->run_block_writes(64);
      clones.push_back({line, std::move(cgen)});
    }
    fs.consistency_point();
  }
  sink.flush_ops();
  return t;
}

std::set<fsim::RefTuple> answer_tuples(const std::vector<core::BackrefEntry>& entries,
                                       std::uint64_t first, std::uint64_t count) {
  std::set<fsim::RefTuple> out;
  for (const core::BackrefEntry& e : entries) {
    for (std::uint64_t i = 0; i < e.rec.key.length; ++i) {
      const std::uint64_t b = e.rec.key.block + i;
      if (b < first || b >= first + count) continue;
      for (const core::Epoch v : e.versions) {
        out.emplace(b, e.rec.key.inode, e.rec.key.offset + i, e.rec.key.line, v);
      }
    }
  }
  return out;
}

std::map<core::BackrefKey, std::uint64_t> live_after(
    const std::vector<core::Update>& ops, std::size_t end) {
  std::map<core::BackrefKey, std::uint64_t> live;
  for (std::size_t i = 0; i < end; ++i) {
    const core::Update& u = ops[i];
    if (u.kind == core::Update::Kind::kAdd) {
      ++live[u.key];
    } else if (const auto it = live.find(u.key); it != live.end()) {
      // A remove with no matching add is a clone dropping an inherited
      // reference: it writes an override record, never a live one.
      if (--it->second == 0) live.erase(it);
    }
  }
  return live;
}

}  // namespace perfbench
