#include "common.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(t.tv_nsec);
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values_.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(values_.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values_[idx];
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

double supported_percentile(std::size_t n, double p) {
  double q = p;
  for (const double cand : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (cand > p) continue;
    q = cand;
    if (static_cast<double>(n) * (100.0 - cand) / 100.0 >= 10.0) break;
  }
  return q;
}

void Report::percentile(const std::string& base, const std::string& suffix,
                        const Samples& s, double p, const std::string& unit,
                        double scale) {
  const double q = supported_percentile(s.size(), p);
  char name[96];
  std::snprintf(name, sizeof name, "%s_p%g%s", base.c_str(), q, suffix.c_str());
  metric(name, s.percentile(q) * scale, unit, s.size());
}

void Report::fail(const std::string& what) {
  if (failed_ < 8) std::printf("FAILED: %s\n", what.c_str());
  ++failed_;
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    if (m.samples != 0) {
      std::printf("  %-34s %16.6g %-9s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) json += ", ";
    first = false;
    char buf[64];
    // %.17g keeps every digit; non-finite values would not parse as JSON.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::int64_t Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled) return -1;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent, request});
  open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(std::int64_t idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::int64_t parent,
                 std::uint64_t request) {
  if (!enabled) return;
  spans_.push_back({name, start_ns, end_ns, parent, request});
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    by_layer[layer] += std::max(0.0, self) / 1e9;
  }
  return {by_layer.begin(), by_layer.end()};
}

void Tracer::dump(const std::filesystem::path& file) const {
  std::ofstream out(file);
  out << "# index\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
}

namespace {
/// A "Vm...:" field of /proc/<pid>/status, in MB.
double status_mb(const char* field, int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  const std::string key = field;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size())) / 1024.0;
  }
  return 0;
}
}  // namespace

double begin_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb("VmRSS:", 0);
}

double peak_rss_mb(int pid) { return status_mb("VmHWM:", pid); }


HostSpeed::HostSpeed() : keys_(8192) {
  std::uint64_t x = 88172645463325252ull;  // xorshift64: fixed keys
  for (std::uint32_t& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<std::uint32_t>(x);
  }
}

void HostSpeed::tick() {
  const std::uint64_t now = now_ns();
  if (now - last_ns_ < 100'000'000) return;
  last_ns_ = now;
  const std::uint64_t a = cpu_ns();
  std::map<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t i = 0; i < 4096; ++i) m[keys_[i]] = i;
  std::uint64_t found = 0;
  for (const std::uint32_t k : keys_) {
    const auto it = m.find(k);
    if (it != m.end()) found += it->second;
  }
  probe_ms_.add(static_cast<double>(cpu_ns() - a) / 1e6);
  sink_ += found;
}

double HostSpeed::scale() const {
  return probe_ms_.size() == 0 ? 1.0 : kReferenceMs / probe_ms();
}

void HostSpeed::print() const {
  std::printf("host reference: median %.4f ms over %zu runs; times scaled by "
              "%.4f to a %.1f ms reference\n",
              probe_ms(), probes(), scale(), kReferenceMs);
}

void settle_disk() { ::sync(); }

void remove_dirs(const std::vector<std::filesystem::path>& dirs) {
  for (const auto& d : dirs) std::filesystem::remove_all(d);
  settle_disk();
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

void report_self_times(Report& r, const Tracer& t, double wall_s, bool wire) {
  std::map<std::string, double> self;
  for (const auto& [layer, s] : t.self_seconds()) self[layer] = s;
  std::printf("layer self time over %.3f s of traced wall time (%zu spans):\n",
              wall_s, t.size());
  std::vector<std::string> layers = {"bench", "core", "storage"};
  if (wire) layers.insert(layers.end(), {"service", "net"});
  for (const std::string& layer : layers) {
    const double s = self.count(layer) != 0 ? self[layer] : 0.0;
    std::printf("  %-8s %10.4f s  %6.2f %%\n", layer.c_str(), s,
                wall_s > 0 ? 100.0 * s / wall_s : 0.0);
    r.metric(layer + ".self_pct", wall_s > 0 ? 100.0 * s / wall_s : 0.0, "%");
  }
}

void report_layers(Report& r, const LayerValues& v, bool wire) {
  struct Def {
    const char* name;  // percentile metrics: "<base>|<p>|<suffix>"
    const char* unit;
    bool wire_only = false;
  };
  static const Def kDefs[] = {
      {"core.apply_ns_per_op", "ns"},
      {"core.cp_ms|50|", "ms"},
      {"core.cp_ms|99|", "ms"},
      {"core.cp_pages_per_op", "pages/op"},
      {"core.maintain_ms|50|", "ms"},
      {"core.maintain_share", "ratio"},
      {"core.maintain_pages_per_op", "pages/op"},
      {"core.l0_runs_at_query_mean", "runs"},
      {"core.result_cache_hit_ratio", "ratio"},
      {"core.ws_entries_peak", "entries"},
      {"lsm.runs_end", "runs"},
      {"lsm.bytes_per_record", "B"},
      {"storage.read_pages_per_query", "pages"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.cache_evictions_per_query", "pages"},
      {"storage.fsyncs_per_op", "1/op", true},
      {"storage.fsync_us_mean", "us", true},
      {"service.exec_update_us|99|", "us", true},
      {"service.queue_wait_us|99|", "us", true},
      {"service.wal_records_per_sync", "records", true},
      {"service.shard_busy_max_frac", "ratio", true},
      {"service.throttled", "count", true},
      {"net.overhead_us|50|", "us", true},
      {"net.bytes_per_op", "B/op", true},
      {"net.decode_errors", "count", true},
      {"bench.late|99|_us", "us", true},
      {"bench.trace_overhead_pct", "%"},
      {"bench.host_probe_ms", "ms"},
      {"error_frac", "ratio"},
  };
  for (const Def& d : kDefs) {
    if (d.wire_only && !wire) continue;
    const std::string name = d.name;
    const std::size_t bar = name.find('|');
    if (bar == std::string::npos) {
      const auto it = v.value.find(name);
      r.metric(name, it == v.value.end() ? 0.0 : it->second, d.unit);
      continue;
    }
    const std::size_t bar2 = name.find('|', bar + 1);
    const std::string base = name.substr(0, bar);
    const double p = std::stod(name.substr(bar + 1, bar2 - bar - 1));
    const std::string suffix = name.substr(bar2 + 1);
    const auto it = v.samples.find(base + suffix);
    if (it == v.samples.end() || it->second == nullptr) {
      char full[96];
      std::snprintf(full, sizeof full, "%s_p%g%s", base.c_str(), p, suffix.c_str());
      r.metric(full, 0.0, d.unit);
    } else {
      r.percentile(base, suffix, *it->second, p, d.unit, v.time_scale);
    }
  }
}

}  // namespace perfbench
