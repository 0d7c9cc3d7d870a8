// perfbench — the repository benchmark program.
//
//   perfbench --workload ingest|query_aged|service_wire --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench --self-test [--work-dir DIR]
//   perfbench serve <root>            (server process of service_wire)
//
// Prints a human-readable table and, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. Exits non-zero when any
// correctness check failed. See ../README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|query_aged|service_wire "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "       perfbench --self-test [--work-dir DIR]\n");
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve(argc - 2, argv + 2);
  }
  Options o;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    double num = 0;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (v == nullptr) {
      return usage();
    } else if (a == "--workload") {
      o.workload = v, ++i;
    } else if (a == "--seed" && parse_number(v, num)) {
      o.seed = static_cast<std::uint64_t>(num), ++i;
    } else if (a == "--seconds" && parse_number(v, num) && num > 0) {
      o.seconds = num, ++i;
    } else if (a == "--trace" && (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
      o.trace = v[0] == '1', ++i;
    } else if (a == "--work-dir") {
      o.work_dir = v, ++i;
    } else if (a == "--plant") {
      o.plant = v, ++i;
    } else {
      return usage();
    }
  }
  try {
    std::filesystem::create_directories(o.work_dir);
    if (self_test) return run_self_test(argv[0], o);
    if (o.workload == "ingest") return run_ingest(o);
    if (o.workload == "query_aged") return run_query_aged(o);
    if (o.workload == "service_wire") return run_service_wire(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
