// Table 1 reproduction: micro- and application benchmarks across the three
// back-reference configurations on an identical simulated file system:
//
//   Base     — no back references            (paper: btrfs with them removed)
//   Original — btrfs-style native back refs  (update-in-place metadata B-tree)
//   Backlog  — this paper's system
//
// Paper result: Backlog's overhead relative to Base is 0.6-11.2% on the
// microbenchmarks (worst on 4 KB create/delete at small CPs, best on 64 KB
// creates) and 1.5-2.1% on the application benchmarks — comparable to the
// natively-integrated btrfs implementation despite being general-purpose.
//
// Substitution note (DESIGN.md): our fsim does not write file data, so
// overhead is computed over *total pages written per operation*, where the
// base cost is the file system's own data+meta-data page writes — the same
// denominator the paper's elapsed-time ratios capture. Wall-clock per op is
// reported alongside.
#include <cinttypes>
#include <functional>
#include <memory>

#include "baseline/native_backrefs.hpp"
#include "bench_common.hpp"

using namespace backlog;

namespace {

struct RunResult {
  double pages_per_op = 0;  // backref pages + modeled FS pages, per file op
  double us_per_op = 0;     // wall time of workload + CP flushes, per file op
  std::uint64_t ops = 0;
};

// Modeled write-anywhere FS cost per consistency point, charged identically
// to every configuration: one page per dirty data block plus one meta-data
// page per 64 dirty blocks (inode/indirect amortization, the paper's 4 KB
// file = worst case of one meta page per data page is captured by small
// files touching distinct inodes).
std::uint64_t fs_pages_for(std::uint64_t dirty_blocks,
                           std::uint64_t files_touched) {
  return dirty_blocks + dirty_blocks / 64 + files_touched / 8 + 1;
}

enum class Config { kBase, kOriginal, kBacklog };
RunResult run_micro(Config config, bool create_phase,
                    std::uint64_t file_blocks, std::uint64_t ops_per_cp,
                    std::uint64_t total_files) {
  fsim::FsimOptions fo;
  fo.ops_per_cp = 1000000;  // CPs taken manually every `ops_per_cp` file ops
  fo.dedup_fraction = 0;
  fo.rng_seed = 17;

  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  std::unique_ptr<baseline::NativeBackrefs> native;
  std::unique_ptr<fsim::NullSink> null;
  std::unique_ptr<fsim::FileSystem> fs;
  if (config == Config::kBacklog) {
    fs = std::make_unique<fsim::FileSystem>(env, fo, core::BacklogOptions{});
  } else if (config == Config::kOriginal) {
    native = std::make_unique<baseline::NativeBackrefs>(env);
    fs = std::make_unique<fsim::FileSystem>(fo, *native);
  } else {
    null = std::make_unique<fsim::NullSink>();
    fs = std::make_unique<fsim::FileSystem>(fo, *null);
  }

  RunResult r;
  std::vector<fsim::InodeNo> files;
  files.reserve(total_files);

  // The delete phase operates on a pre-created population (not measured).
  if (!create_phase) {
    for (std::uint64_t i = 0; i < total_files; ++i)
      files.push_back(fs->create_file(0, file_blocks));
    fs->consistency_point();
  }

  const double t0 = bench::now_seconds();
  std::uint64_t backref_pages = 0;
  std::uint64_t dirty_since_cp = 0, files_since_cp = 0, fs_pages = 0;
  for (std::uint64_t i = 0; i < total_files; ++i) {
    if (create_phase) {
      files.push_back(fs->create_file(0, file_blocks));
      dirty_since_cp += file_blocks;
    } else {
      fs->delete_file(0, files[i]);
    }
    ++files_since_cp;
    ++r.ops;
    if (r.ops % ops_per_cp == 0 || i + 1 == total_files) {
      const auto s = fs->consistency_point();
      backref_pages += s.pages_written;
      fs_pages += fs_pages_for(dirty_since_cp, files_since_cp);
      dirty_since_cp = files_since_cp = 0;
    }
  }
  const double dt = bench::now_seconds() - t0;
  r.pages_per_op =
      static_cast<double>(fs_pages + backref_pages) / static_cast<double>(r.ops);
  r.us_per_op = dt * 1e6 / static_cast<double>(r.ops);
  return r;
}

RunResult run_app(Config config, const fsim::WorkloadOptions& wl,
                  std::uint64_t block_writes) {
  fsim::FsimOptions fo;
  fo.ops_per_cp = 2048;
  fo.dedup_fraction = 0.05;
  fo.rng_seed = 23;

  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  std::unique_ptr<baseline::NativeBackrefs> native;
  std::unique_ptr<fsim::NullSink> null;
  std::unique_ptr<fsim::FileSystem> fs;
  if (config == Config::kBacklog) {
    fs = std::make_unique<fsim::FileSystem>(env, fo, core::BacklogOptions{});
  } else if (config == Config::kOriginal) {
    native = std::make_unique<baseline::NativeBackrefs>(env);
    fs = std::make_unique<fsim::FileSystem>(fo, *native);
  } else {
    null = std::make_unique<fsim::NullSink>();
    fs = std::make_unique<fsim::FileSystem>(fo, *null);
  }

  fsim::WorkloadGenerator gen(*fs, 0, wl);
  const double t0 = bench::now_seconds();
  std::uint64_t backref_pages = 0;
  std::uint64_t writes_done = 0;
  while (writes_done < block_writes) {
    gen.step();
    if (const auto s = fs->maybe_consistency_point()) {
      backref_pages += s->pages_written;
    }
    writes_done = fs->stats().block_writes;
  }
  const auto s = fs->consistency_point();
  backref_pages += s.pages_written;
  const double dt = bench::now_seconds() - t0;

  RunResult r;
  r.ops = fs->stats().block_writes + fs->stats().block_frees;
  const std::uint64_t fs_pages =
      fs_pages_for(fs->stats().block_writes, fs->stats().block_writes / 4);
  r.pages_per_op = static_cast<double>(fs_pages + backref_pages) /
                   static_cast<double>(r.ops);
  r.us_per_op = dt * 1e6 / static_cast<double>(r.ops);
  return r;
}

void print_row(const char* name, const RunResult& base, const RunResult& orig,
               const RunResult& backlog) {
  const double over_orig =
      100.0 * (orig.pages_per_op - base.pages_per_op) / base.pages_per_op;
  const double over_backlog =
      100.0 * (backlog.pages_per_op - base.pages_per_op) / base.pages_per_op;
  std::printf("%-34s %9.3f %9.3f %9.3f %9.1f%% %9.1f%%\n", name,
              base.pages_per_op, orig.pages_per_op, backlog.pages_per_op,
              over_orig, over_backlog);
}

}  // namespace

int main() {
  const bench::Scale scale = bench::Scale::from_env();
  bench::print_header(
      "Table 1: Base vs Original (btrfs-style) vs Backlog",
      "Backlog within 0.6-11.2% of Base on micro, 1.5-2.1% on app benches",
      scale);
  std::printf("(pages/op = modeled FS data+meta pages + measured backref pages)\n\n");
  std::printf("%-34s %9s %9s %9s %10s %10s\n", "benchmark", "Base", "Original",
              "Backlog", "ovh_Orig", "ovh_Bklg");

  const std::uint64_t n_files = 4096;
  struct Micro {
    const char* name;
    bool create;
    std::uint64_t blocks;
    std::uint64_t ops_per_cp;
  };
  const Micro micros[] = {
      {"create 4KB file (2048 ops/CP)", true, 1, 2048},
      {"create 64KB file (2048 ops/CP)", true, 16, 2048},
      {"delete 4KB file (2048 ops/CP)", false, 1, 2048},
      {"create 4KB file (8192 ops/CP)", true, 1, 8192},
      {"create 64KB file (8192 ops/CP)", true, 16, 8192},
      {"delete 4KB file (8192 ops/CP)", false, 1, 8192},
  };
  for (const Micro& m : micros) {
    const auto base =
        run_micro(Config::kBase, m.create, m.blocks, m.ops_per_cp, n_files);
    const auto orig =
        run_micro(Config::kOriginal, m.create, m.blocks, m.ops_per_cp, n_files);
    const auto backlog =
        run_micro(Config::kBacklog, m.create, m.blocks, m.ops_per_cp, n_files);
    print_row(m.name, base, orig, backlog);
  }

  struct App {
    const char* name;
    fsim::WorkloadOptions wl;
  };
  const App apps[] = {
      {"dbench-like (CIFS)", fsim::dbench_preset(5)},
      {"varmail-like (/var/mail)", fsim::varmail_preset(5)},
      {"postmark-like", fsim::postmark_preset(5)},
  };
  for (const App& a : apps) {
    const auto base = run_app(Config::kBase, a.wl, 60000);
    const auto orig = run_app(Config::kOriginal, a.wl, 60000);
    const auto backlog = run_app(Config::kBacklog, a.wl, 60000);
    print_row(a.name, base, orig, backlog);
  }

  std::printf(
      "\npaper overheads (Backlog vs Base): creates 0.6-7.9%%, deletes\n"
      "7.1-11.2%%, apps 1.5-2.1%%; Backlog comparable to Original throughout.\n"
      "check: ovh_Bklg small, larger at 2048 ops/CP than 8192, and of the\n"
      "same magnitude as ovh_Orig.\n");
  return 0;
}
