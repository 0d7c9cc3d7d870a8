// Read-store run files (§5.1).
//
// A run file is an immutable, densely packed B-tree written bottom-up from
// an already-sorted record stream:
//
//   [leaf pages][I1 pages][I2 pages]...[bloom bytes][footer page]
//
// * Records are fixed-size byte strings totally ordered by memcmp (Backlog
//   encodes record fields big-endian precisely so this holds).
// * Leaf pages hold floor(4096/record_size) records each; record i lives at
//   page i/rpp, slot i%rpp — the tree is *implicit*: internal level k holds
//   the first record of every level-(k-1) page, and because children are
//   physically contiguous the child page number is start + slot index. This
//   mirrors the paper's Leaf/I1/I2 construction: while the leaf file is
//   streamed out, I1 is accumulated in memory, then I2, ... so writing a run
//   requires *zero* disk reads.
// * A Bloom filter over caller-supplied 64-bit keys (Backlog: the physical
//   block number) is serialized before the footer and loaded eagerly on
//   open, so negative point queries cost no page reads at all.
// * RunWriter buffers leaf pages and appends them kIoChunkPages at a time;
//   the bytes on disk and the page-write count are those of one append per
//   page.
//
// Two read paths, one per access pattern:
//
// * RunFile::Stream (seek/stream_from/scan) reads one page at a time
//   through the BlockCache. Queries and relocation use it: their reads are
//   short and repeat, so cached index and leaf pages pay off. A record()
//   span points into a cached page; the stream holds a shared_ptr to that
//   page, so the bytes stay valid across eviction until the stream moves
//   to another page.
// * RunFile::SequentialStream (sequential_from) is maintenance's path: it
//   reads up to kIoChunkPages leaf pages per pread into a buffer the stream
//   owns (sized min(kIoChunkPages, leaf pages left), so small runs stay
//   small) and never touches the BlockCache. Maintenance reads each page of
//   a run exactly once and then deletes the run, so caching those pages
//   would only evict pages that queries reuse. A record() span points into
//   the stream's own buffer, which is refilled only inside next().
//
// Both charge IoStats one page read per leaf page the stream moves onto (a
// cached stream only on a cache miss), so page counts do not depend on the
// chunk size.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "storage/env.hpp"
#include "storage/block_cache.hpp"
#include "util/bloom.hpp"

namespace backlog::lsm {

/// Pages per run-file I/O on the sequential paths: RunWriter's leaf appends
/// and SequentialStream's reads (16 x 4 KB = 64 KB).
inline constexpr std::size_t kIoChunkPages = 16;

/// Abstract sorted stream of fixed-size records; the unit of composition for
/// merges (runs, write-store snapshots, filters all speak this interface).
///
/// Lifetime contract: the span record() returns stays valid until the next
/// call to next() on the *same* stream (or its destruction). Advancing any
/// other stream does not invalidate it, and neither does block-cache
/// eviction: a cached run-file stream holds a shared_ptr to its current
/// page, which pins the page's bytes, and a sequential one refills its own
/// buffer only inside next(). MergeStream and OuterJoinStream rely on this to
/// read each input's record once per advance and keep the pointer.
class RecordStream {
 public:
  virtual ~RecordStream() = default;
  [[nodiscard]] virtual bool valid() const = 0;
  [[nodiscard]] virtual std::span<const std::uint8_t> record() const = 0;
  virtual void next() = 0;
};

/// In-memory stream over a flat, sorted byte buffer of fixed-size records.
class VectorStream final : public RecordStream {
 public:
  VectorStream(std::vector<std::uint8_t> data, std::size_t record_size)
      : data_(std::move(data)), record_size_(record_size) {}

  [[nodiscard]] bool valid() const override { return pos_ < data_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return {data_.data() + pos_, record_size_};
  }
  void next() override { pos_ += record_size_; }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t record_size_;
  std::size_t pos_ = 0;
};

/// Streams records (pre-sorted!) into a new run file.
class RunWriter {
 public:
  /// `expected_keys` sizes the Bloom filter (paper rule: 8 bits/key capped
  /// at `bloom_max_bytes`; it is shrunk to fit the actual count at finish).
  RunWriter(storage::Env& env, const std::string& file_name,
            std::size_t record_size, std::size_t expected_keys,
            std::size_t bloom_max_bytes = 32 * 1024);

  /// Append the next record (must be >= the previous one under memcmp);
  /// `bloom_key` is the point-lookup key (Backlog: physical block number).
  void add(std::span<const std::uint8_t> record, std::uint64_t bloom_key);

  /// Flush all levels + bloom + footer. Returns the record count.
  std::uint64_t finish();

  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }

  /// Post-finish accessors so the flush path can register run metadata
  /// without re-reading the file (the CP update path must never read disk).
  [[nodiscard]] const util::BloomFilter& bloom() const noexcept { return bloom_; }
  [[nodiscard]] const std::vector<std::uint8_t>& first_record() const noexcept {
    return first_record_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& last_record() const noexcept {
    return last_record_;
  }
  [[nodiscard]] std::uint64_t file_size() const noexcept { return file_size_; }

 private:
  void flush_leaf_page();
  void append_leaf_pages();

  storage::Env& env_;
  std::unique_ptr<storage::WritableFile> file_;
  std::size_t record_size_;
  std::size_t records_per_page_;
  // Up to kIoChunkPages leaf pages awaiting one append. A member array, not
  // a heap buffer: a 64 KB vector allocated and freed at every CP measured
  // 7-10% slower write-store batches on the ingest benchmark.
  std::array<std::uint8_t, kIoChunkPages * storage::kPageSize> pages_;
  std::size_t buffered_pages_ = 0;  // full pages at the front of pages_
  std::size_t page_records_ = 0;    // records in the page being filled
  std::vector<std::vector<std::uint8_t>> levels_;  // I1.. separators, flat
  util::BloomFilter bloom_;
  std::uint64_t count_ = 0;
  std::uint64_t leaf_pages_ = 0;
  std::vector<std::uint8_t> first_record_;  // footer min key
  std::vector<std::uint8_t> last_record_;   // sortedness check + footer max key
  std::uint64_t file_size_ = 0;             // total bytes after finish
  bool finished_ = false;
};

/// Immutable view of a finished run file.
class RunFile {
 public:
  /// Opens the file, reads footer and Bloom filter (charged to IoStats).
  RunFile(storage::Env& env, std::string file_name, storage::BlockCache& cache);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] std::size_t record_size() const noexcept { return record_size_; }
  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return file_->size(); }
  [[nodiscard]] const util::BloomFilter& bloom() const noexcept { return bloom_; }

  /// Bloom check for a point key; false means definitely absent.
  [[nodiscard]] bool may_contain(std::uint64_t bloom_key) const noexcept {
    return bloom_.may_contain(bloom_key);
  }

  /// Smallest/largest record (empty run: both nullopt).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> min_record() const;
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> max_record() const;

  /// Index of the first record whose prefix-compare with `prefix` is >= 0,
  /// i.e. lower_bound under memcmp over the first prefix.size() bytes.
  /// Descends the implicit B-tree: O(height) page reads.
  [[nodiscard]] std::uint64_t lower_bound(std::span<const std::uint8_t> prefix) const;

  class Stream final : public RecordStream {
   public:
    [[nodiscard]] bool valid() const override { return pos_ < run_->record_count_; }
    [[nodiscard]] std::span<const std::uint8_t> record() const override;
    void next() override { ++pos_; }

   private:
    friend class RunFile;
    const RunFile* run_ = nullptr;
    std::uint64_t pos_ = 0;
    mutable std::shared_ptr<const storage::PageBuffer> page_;
    mutable std::uint64_t cached_page_no_ = UINT64_MAX;
  };

  /// Chunked, uncached full-page reader (see the header comment).
  class SequentialStream final : public RecordStream {
   public:
    SequentialStream(const RunFile& run, std::uint64_t start);

    [[nodiscard]] bool valid() const override { return pos_ < count_; }
    [[nodiscard]] std::span<const std::uint8_t> record() const override {
      return {rec_, record_size_};
    }
    void next() override;

   private:
    /// Points rec_ at the first record of leaf page `page`, reading the
    /// next chunk when the page is not in the buffer.
    void enter_page(std::uint64_t page);

    const storage::RandomAccessFile& file_;
    std::uint64_t count_;
    std::uint64_t leaf_pages_;
    std::size_t record_size_;
    std::size_t records_per_page_;
    std::uint64_t pos_;
    std::size_t slot_ = 0;  // pos_'s index within its page
    const std::uint8_t* rec_ = nullptr;
    std::vector<std::uint8_t> buf_;
    std::uint64_t buf_first_page_ = 0;
    std::uint64_t buf_pages_ = 0;  // pages of buf_ holding file data
  };

  /// Stream starting at record index `start`.
  [[nodiscard]] std::unique_ptr<Stream> stream_from(std::uint64_t start) const;

  /// Sequential (uncached) stream starting at record index `start`.
  [[nodiscard]] std::unique_ptr<SequentialStream> sequential_from(
      std::uint64_t start) const {
    return std::make_unique<SequentialStream>(*this, start);
  }

  /// Stream from the first record with record-prefix >= `prefix`.
  [[nodiscard]] std::unique_ptr<Stream> seek(std::span<const std::uint8_t> prefix) const;

  /// Full scan.
  [[nodiscard]] std::unique_ptr<Stream> scan() const { return stream_from(0); }

 private:
  friend class Stream;

  [[nodiscard]] std::span<const std::uint8_t> record_at(
      std::uint64_t index, std::shared_ptr<const storage::PageBuffer>& page,
      std::uint64_t& cached_page_no) const;

  storage::Env& env_;
  std::string name_;
  std::unique_ptr<storage::RandomAccessFile> file_;
  storage::BlockCache& cache_;
  std::size_t record_size_ = 0;
  std::size_t records_per_page_ = 0;
  std::uint64_t record_count_ = 0;
  std::uint64_t leaf_pages_ = 0;
  // Internal levels: level[i] = {start_page, page_count}; level 0 = I1.
  struct LevelInfo {
    std::uint64_t start_page;
    std::uint64_t page_count;
    std::uint64_t entry_count;
  };
  std::vector<LevelInfo> levels_;
  std::size_t entries_per_index_page_ = 0;
  util::BloomFilter bloom_;
  std::vector<std::uint8_t> min_record_;
  std::vector<std::uint8_t> max_record_;
};

}  // namespace backlog::lsm
