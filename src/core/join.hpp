// Outer join of the From and To tables (§4.2.1).
//
// Both inputs are sorted streams of encoded records sharing the 40-byte
// (block, inode, offset, length, line) prefix. Within each group:
//
//   * a From entry pairs with the *smallest* To entry with to > from;
//   * a From entry with no matching To is incomplete (to = ∞, live record);
//   * a To entry with no matching From joins an implicit from = 0 — this is
//     a structural-inheritance override record (§4.2.2).
//
// OuterJoinStream emits the resulting Combined records as a sorted
// RecordStream, so compaction can pipe it straight into a RunWriter merged
// with the previous Combined RS, and queries can collect from it directly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/backref_record.hpp"
#include "lsm/run_file.hpp"

namespace backlog::core {

class OuterJoinStream final : public lsm::RecordStream {
 public:
  /// `from_in` yields kFromRecordSize records; `to_in` yields kToRecordSize
  /// records; both in memcmp order. Either may be null/empty.
  OuterJoinStream(std::unique_ptr<lsm::RecordStream> from_in,
                  std::unique_ptr<lsm::RecordStream> to_in);

  [[nodiscard]] bool valid() const override;
  [[nodiscard]] std::span<const std::uint8_t> record() const override;
  void next() override;

 private:
  void refill();

  std::unique_ptr<lsm::RecordStream> from_;
  std::unique_ptr<lsm::RecordStream> to_;
  // Per-group scratch, reused across groups so a refill allocates nothing
  // once the vectors have grown to the largest group seen.
  std::vector<Epoch> froms_;
  std::vector<Epoch> tos_;
  std::vector<std::pair<Epoch, Epoch>> joined_;
  std::vector<std::uint8_t> group_out_;  // encoded Combined records
  std::size_t pos_ = 0;                  // byte offset into group_out_
};

/// The per-group pairing: `froms`/`tos` are the epochs of one key group,
/// sorted ascending. Replaces `out` with the [from, to) intervals sorted
/// ascending.
void join_epochs(std::span<const Epoch> froms, std::span<const Epoch> tos,
                 std::vector<std::pair<Epoch, Epoch>>& out);

/// join_epochs() as Combined records of `key`; unit-tested directly.
std::vector<CombinedRecord> join_group(const BackrefKey& key,
                                       const std::vector<Epoch>& froms,
                                       const std::vector<Epoch>& tos);

}  // namespace backlog::core
