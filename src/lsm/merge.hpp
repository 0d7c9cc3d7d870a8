// K-way merge over sorted record streams.
//
// Used by compaction (merge all Level-0 runs, §5.2) and by queries (merge
// run files + write-store snapshot into one sorted view). Duplicate records
// across inputs are *kept* — Backlog tables are multisets (the same
// (block,inode,offset,line) key legitimately recurs with different epochs,
// and those epochs are part of the record bytes anyway).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lsm/run_file.hpp"

namespace backlog::lsm {

class MergeStream final : public RecordStream {
 public:
  /// Streams must all produce records of `record_size` bytes in memcmp order.
  MergeStream(std::vector<std::unique_ptr<RecordStream>> inputs,
              std::size_t record_size);

  [[nodiscard]] bool valid() const override { return !heap_.empty(); }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return {heap_.front().rec, record_size_};
  }
  void next() override;

 private:
  // One live input's current record. The pointer is read once per advance
  // of that input and stays valid until its next next() (the RecordStream
  // lifetime contract), so heap comparisons never call record().
  struct Head {
    const std::uint8_t* rec;
    std::size_t input;  // index into inputs_; breaks ties deterministically
  };

  void sift_down(std::size_t i);
  void find_runner_up();
  [[nodiscard]] bool less(const Head& a, const Head& b) const;

  std::vector<std::unique_ptr<RecordStream>> inputs_;
  std::vector<Head> heap_;  // min-heap by (record, input)
  // Heap index of the root's smaller child, the second-best head (0 when the
  // root has no child). An advanced input whose new head still sorts before
  // it keeps the root after a single comparison.
  std::size_t runner_up_ = 0;
  std::size_t record_size_;
};

/// Wraps a stream, dropping exact-duplicate consecutive records. Compaction
/// uses this to collapse records that were re-written by earlier merges.
class DedupStream final : public RecordStream {
 public:
  DedupStream(std::unique_ptr<RecordStream> in, std::size_t record_size);

  [[nodiscard]] bool valid() const override { return in_->valid(); }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return in_->record();
  }
  void next() override;

 private:
  std::unique_ptr<RecordStream> in_;
  std::size_t record_size_;
  std::vector<std::uint8_t> prev_;  // the record being skipped past
};

}  // namespace backlog::lsm
