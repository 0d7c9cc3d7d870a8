// Shared plumbing of the benchmark program: command-line options, latency
// samples with the percentile rule, the result ledger printed at the end of
// a run, and the in-memory span recorder of traced runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root for volumes, server roots and span dumps; relative to the
  /// working directory so a run never writes outside its checkout.
  std::filesystem::path work_dir = ".bench_work";
  /// Self-test hook: name of a correctness check whose input the run
  /// corrupts once, so the self-test can prove the check fires.
  std::string plant;
  /// Self-test sizing: shrink every workload so a run takes about a second.
  bool tiny = false;
};

/// Steady-clock nanoseconds (CLOCK_MONOTONIC, shared across processes on
/// one host, which lets client and server spans be lined up).
std::uint64_t now_ns();

/// CPU nanoseconds of the calling thread (CLOCK_THREAD_CPUTIME_ID). The
/// single-caller workloads time their calls with it: on a shared VM the
/// thread loses its vCPU for 0.5-7 ms several times a second, which a wall
/// clock charges to whichever call is running and this clock does not. A
/// read costs about 0.3 us (a system call, where now_ns() is 0.04 us), so
/// point owner queries, which take about 1 us, keep the wall clock: a
/// preemption lands on about one of them in 100,000, too few to move even
/// a p99.
std::uint64_t cpu_ns();

/// Latency samples of one operation type. Percentiles use the nearest-rank
/// rule on the sorted sample.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// A rate over the rounds of a run: their total count over their total
/// time, so every round weighs by its length.
struct Rate {
  double count = 0, seconds = 0;
  std::size_t rounds = 0;
  void add(double n, double s) {
    count += n;
    seconds += s;
    ++rounds;
  }
  [[nodiscard]] double per_s() const { return seconds > 0 ? count / seconds : 0; }
};

/// The percentile rule: the highest of p99/p95/p90/p75/p50, at most `p`,
/// with at least ten of `n` samples above it (p50 when none qualifies).
double supported_percentile(std::size_t n, double p);

/// Everything a run reports. Metrics keep their order of insertion.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// Prints `<base>_p<q><suffix>` with its sample count, where q is
  /// supported_percentile(s.size(), p): a p99 only when at least ten
  /// samples lie beyond it, else the highest percentile the sample
  /// supports, under that percentile's own name.
  void percentile(const std::string& base, const std::string& suffix,
                  const Samples& s, double p, const std::string& unit,
                  double scale = 1.0);
  /// One failed operation or wrong answer; the first few are printed.
  void fail(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  /// Human-readable table, then the one-line JSON result (last line).
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans recorded around the benchmark's calls into each layer. Kept in
/// memory while the run measures; written out and summarised at the end.
class Tracer {
 public:
  struct Span {
    const char* name;       ///< "<layer>.<call>", a string literal
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;    ///< index of the enclosing span, -1 at the root
    std::uint64_t request;  ///< spans of one request share this id
  };

  bool enabled = false;

  /// Opens a span; returns its index (or -1 when tracing is off).
  std::int64_t begin(const char* name, std::uint64_t request);
  void end(std::int64_t idx);
  /// Records a finished span (child of `parent`) with explicit times.
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int64_t parent, std::uint64_t request);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] const Span& at(std::int64_t idx) const {
    return spans_[static_cast<std::size_t>(idx)];
  }

  /// Self time per layer (span duration minus its children's durations),
  /// in seconds, keyed by the layer prefix of the span name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;
  /// Writes one tab-separated line per span.
  void dump(const std::filesystem::path& file) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indexes
};

/// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request = 0)
      : t_(t), idx_(t.begin(name, request)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int64_t idx_;
};

/// How fast the shared host runs this thread at the moment, measured by a
/// fixed reference computation (an ordered map of 4,096 keys built and
/// probed 8,192 times, about 1.5 ms) run between the measured calls every
/// 100 ms. Speed on a shared VM swings by 20-65% within minutes (a vCPU runs
/// slower while other tenants load the host), which no clock removes; the
/// reference slows with the program. The in-process workloads multiply
/// their times by scale() (divide their rates by it), which gives them in
/// the time they would take on a host where the reference takes
/// kReferenceMs. The reference is the benchmark's own code, so a change to
/// the program moves the scaled times exactly as much as the raw ones.
class HostSpeed {
 public:
  static constexpr double kReferenceMs = 1.5;

  HostSpeed();
  /// Runs the reference once when 100 ms have passed since the last run.
  void tick();
  /// Median thread CPU time of the reference, in ms.
  [[nodiscard]] double probe_ms() const { return probe_ms_.median(); }
  [[nodiscard]] std::size_t probes() const { return probe_ms_.size(); }
  /// kReferenceMs over probe_ms(): the factor to multiply measured times by.
  [[nodiscard]] double scale() const;
  /// One line: the reference's median, its sample count and the scale.
  void print() const;

 private:
  std::vector<std::uint32_t> keys_;
  std::uint64_t last_ns_ = 0;
  std::uint64_t sink_ = 0;  // keeps the work from being optimised away
  Samples probe_ms_;
};

/// Starts a peak-memory measurement of this process: returns freed heap to
/// the kernel, resets the kernel's peak-RSS mark and returns the resident
/// size (MB) the measurement starts from.
double begin_peak_rss();
/// Peak resident set (VmHWM) of a process in MB; `pid` 0 means this one.
double peak_rss_mb(int pid = 0);

/// Seeds and tracing of the rounds of a run. Untraced runs give every round
/// its own seed, so a run averages over many inputs. Traced runs pair the
/// rounds: both rounds of a pair get the same seed, the second is traced,
/// and the cost ratio of the two measures the tracing overhead.
struct RoundPlan {
  std::uint64_t seed;
  bool trace;
  [[nodiscard]] std::uint64_t seed_of(int round) const {
    return seed * 1000003 + static_cast<std::uint64_t>(trace ? round / 2 : round);
  }
  [[nodiscard]] bool traced(int round) const { return trace && round % 2 == 1; }
  /// Rounds a run needs at least: `untraced`, rounded up to whole pairs
  /// when tracing.
  [[nodiscard]] int min_rounds(int untraced) const {
    return trace ? (untraced + 1) / 2 * 2 : untraced;
  }
};

/// Tracing overhead in percent: the median over pairs of the traced round's
/// cost over its untraced twin's, minus one.
class OverheadPairs {
 public:
  /// `cost` of round `round`; pairs whose rounds are not comparable are
  /// left out by passing `comparable` false.
  void add(const RoundPlan& plan, int round, double cost, bool comparable = true) {
    if (!plan.trace) return;
    if (!plan.traced(round)) {
      untraced_ = comparable ? cost : 0;
    } else if (untraced_ > 0 && comparable) {
      ratios_.add(cost / untraced_);
    }
  }
  [[nodiscard]] double pct() const {
    return ratios_.size() == 0 ? 0.0 : 100.0 * (ratios_.median() - 1.0);
  }

 private:
  double untraced_ = 0;
  Samples ratios_;
};

/// Writes back every dirty page now (sync(2)), so write-back of one round's
/// files does not land inside a later round's measurement.
void settle_disk();

/// Deletes the round directories of a run, then settles the disk: file
/// deletions are kept out of the measured rounds because they make the
/// filesystem discard blocks, which stalls other I/O.
void remove_dirs(const std::vector<std::filesystem::path>& dirs);

/// Bytes of all regular files under `dir`.
std::uint64_t dir_bytes(const std::filesystem::path& dir);

/// Prints the per-layer self-time table of a traced run and adds one
/// `<layer>.self_pct` metric (share of `wall_s`) for each of the layers
/// bench, core and storage, and with `wire` also service and net.
void report_self_times(Report& r, const Tracer& t, double wall_s, bool wire);

/// Per-layer metrics of a traced run. The in-process workloads print
/// BENCHMARK.json's per_layer list; `wire` adds the metrics only a server
/// over the wire has (fsyncs, service, net, the open-loop generator). A
/// metric of a layer the workload never calls reads 0. Percentile metrics
/// take their samples and follow the percentile rule.
struct LayerValues {
  std::map<std::string, double> value;
  std::map<std::string, const Samples*> samples;
  double time_scale = 1.0;  ///< applied to every percentile metric (HostSpeed)
};
void report_layers(Report& r, const LayerValues& v, bool wire);

int run_ingest(const Options& o);
int run_query_aged(const Options& o);
int run_service_wire(const Options& o);
int run_serve(int argc, char** argv);
int run_self_test(const std::string& self_exe, const Options& o);

}  // namespace perfbench
