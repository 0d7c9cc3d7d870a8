// `perfbench --self-test`: proves that every correctness check of the
// benchmark fires. Each check is run once on a small workload with one
// planted wrong answer (`--plant <check>`), and must turn the run's result
// to correct=false with a non-zero exit; the same runs without a plant must
// pass. Also checks the percentile rule's naming.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

/// Runs the benchmark program on `workload`, returns its exit status and whether the
/// last output line reported correct=true.
int run_child(const std::string& exe, const Options& o,
              const std::string& workload, const std::string& plant,
              bool* correct) {
  std::string cmd = "'" + exe + "' --tiny --workload " + workload +
                    " --seed 1 --seconds 0.5 --trace 0 --work-dir '" +
                    o.work_dir.string() + "'";
  if (!plant.empty()) cmd += " --plant " + plant;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return -1;
  char buf[8192];
  std::string last;
  while (std::fgets(buf, sizeof buf, p) != nullptr) last = buf;
  const int status = pclose(p);
  *correct = last.find("\"correct\": true") != std::string::npos;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

int run_self_test(const std::string& exe, const Options& o) {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };

  expect(supported_percentile(1000, 99) == 99, "1000 samples support p99");
  expect(supported_percentile(999, 99) == 95, "999 samples fall back to p95");
  expect(supported_percentile(100, 99) == 90, "100 samples fall back to p90");

  const struct {
    const char* workload;
    const char* plant;
  } cases[] = {
      {"ingest", ""},          {"ingest", "ingest_query"},
      {"ingest", "ingest_scan"}, {"query_aged", ""},
      {"query_aged", "query_ref"}, {"service_wire", ""},
      {"service_wire", "wire_query"}, {"service_wire", "wire_ledger"},
  };
  for (const auto& c : cases) {
    bool correct = false;
    const int rc = run_child(exe, o, c.workload, c.plant, &correct);
    const bool planted = c.plant[0] != '\0';
    const bool ok = planted ? (rc != 0 && !correct) : (rc == 0 && correct);
    expect(ok, std::string(c.workload) +
                   (planted ? " catches planted " + std::string(c.plant)
                            : " passes unplanted") +
                   " (exit " + std::to_string(rc) + ")");
  }
  std::printf("self-test: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
