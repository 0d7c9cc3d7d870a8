// Input generation for the in-process workloads: the paper's write-anywhere
// file system (fsim, §6.2.1 op mix, 10% dedup, snapshots and clones) runs
// during set-up against a recording sink, so the measured phase replays a
// plain list of BacklogDb calls and times nothing but the library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/backlog_db.hpp"
#include "fsim/fsim.hpp"
#include "fsim/verifier.hpp"

namespace perfbench {

/// One recorded call of the file system into the back-reference layer.
struct Step {
  enum class Kind : std::uint8_t {
    kOps,             ///< apply ops[a, b)
    kCp,              ///< consistency_point()
    kSnapshot,        ///< registry().take_snapshot(line a) == version b
    kDeleteSnapshot,  ///< registry().delete_snapshot(line a, version b)
    kClone,           ///< registry().create_clone(line a, version b) == line c
    kKillLine,        ///< registry().kill_line(line a)
  };
  Kind kind = Kind::kOps;
  std::uint64_t a = 0, b = 0, c = 0;
};

struct FsTraceOptions {
  std::uint64_t seed = 1;
  std::uint64_t cps = 300;           ///< consistency points in the trace
  std::uint64_t ops_per_cp = 2000;   ///< 1/16 of WAFL's 32,000 (§6.1)
  /// A second phase of `tail_cps` smaller CPs after the first `cps`.
  std::uint64_t tail_cps = 0;
  std::uint64_t tail_ops_per_cp = 0;
  bool clones = true;                ///< a writable clone every 14 CPs
};

/// A recorded file-system run plus the simulator state it ended in (the
/// ground truth of every check).
struct FsTrace {
  std::vector<backlog::core::Update> ops;
  std::vector<Step> steps;
  std::uint64_t cps = 0;
  std::unique_ptr<backlog::fsim::FileSystem> fs;
};

/// Runs fsim with the paper's policies: 4 hourly + 4 nightly snapshots (one
/// "hour" = 6 CPs), clone churn of one clone every 14 CPs (7 per 100) with
/// at most 4 live clones.
FsTrace record_fs_trace(const FsTraceOptions& options);

/// The tuples a query answer claims, restricted to [first, first+count),
/// in the unit of fsim::ground_truth_refs.
std::set<backlog::fsim::RefTuple> answer_tuples(
    const std::vector<backlog::core::BackrefEntry>& entries,
    std::uint64_t first, std::uint64_t count);

/// Live (to = infinity) references the op stream leaves behind: adds not
/// yet removed, kept with multiplicity.
std::map<backlog::core::BackrefKey, std::uint64_t> live_after(
    const std::vector<backlog::core::Update>& ops, std::size_t end);

}  // namespace perfbench
