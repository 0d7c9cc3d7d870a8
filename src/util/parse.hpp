// Strict numeric parsing for command-line arguments (backlogctl, backlogd).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace backlog::util {

/// The whole argument must be a decimal (or 0x-hex) number in
/// [min_value, max_value]. Malformed arguments — empty, signed, trailing
/// junk, out of range — return false rather than a silent 0 (which strtoull
/// alone would give for "abc"); `out` is written only on success.
inline bool parse_u64(const char* arg, std::uint64_t& out,
                      std::uint64_t min_value = 0,
                      std::uint64_t max_value = UINT64_MAX) {
  if (arg == nullptr || *arg == '\0' || *arg == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 0);
  if (errno != 0 || end == arg || *end != '\0') return false;
  if (v < min_value || v > max_value) return false;
  out = v;
  return true;
}

}  // namespace backlog::util
