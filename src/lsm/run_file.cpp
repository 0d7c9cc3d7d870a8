#include "lsm/run_file.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/serde.hpp"

namespace backlog::lsm {

namespace {

using storage::kPageSize;

constexpr std::uint64_t kMagic = 0x424b4c4f4752554eULL;  // "BKLOGRUN"
constexpr std::size_t kMaxLevels = 8;

// Footer layout offsets (single page at the end of the file).
constexpr std::size_t kFooterMagic = 0;
constexpr std::size_t kFooterRecordSize = 8;
constexpr std::size_t kFooterRecordCount = 16;
constexpr std::size_t kFooterLeafPages = 24;
constexpr std::size_t kFooterLevelCount = 32;
constexpr std::size_t kFooterBloomOffset = 40;
constexpr std::size_t kFooterBloomSize = 48;
constexpr std::size_t kFooterLevels = 56;                       // 8 x 24 bytes
constexpr std::size_t kFooterMinMax = kFooterLevels + kMaxLevels * 24;

int prefix_cmp(std::span<const std::uint8_t> record,
               std::span<const std::uint8_t> prefix) {
  return std::memcmp(record.data(), prefix.data(), prefix.size());
}

}  // namespace

RunWriter::RunWriter(storage::Env& env, const std::string& file_name,
                     std::size_t record_size, std::size_t expected_keys,
                     std::size_t bloom_max_bytes)
    : env_(env),
      record_size_(record_size),
      bloom_(util::BloomFilter::sized_for(expected_keys == 0 ? 1 : expected_keys,
                                          bloom_max_bytes)) {
  if (record_size_ == 0 || record_size_ > 1024)
    throw std::invalid_argument("RunWriter: record_size out of range");
  records_per_page_ = kPageSize / record_size_;
  file_ = env_.create_file(file_name);
  levels_.emplace_back();  // I1 separators accumulate here
}

void RunWriter::add(std::span<const std::uint8_t> record, std::uint64_t bloom_key) {
  if (finished_) throw std::logic_error("RunWriter: add after finish");
  if (record.size() != record_size_)
    throw std::invalid_argument("RunWriter: wrong record size");
  if (!last_record_.empty() &&
      std::memcmp(last_record_.data(), record.data(), record_size_) > 0)
    throw std::logic_error("RunWriter: records must be added in sorted order");
  if (first_record_.empty()) first_record_.assign(record.begin(), record.end());
  last_record_.assign(record.begin(), record.end());

  if (page_records_ == 0) {
    // First record of a fresh leaf page: remember it as the I1 separator.
    levels_[0].insert(levels_[0].end(), record.begin(), record.end());
  }
  std::memcpy(pages_.data() + buffered_pages_ * kPageSize +
                  page_records_ * record_size_,
              record.data(), record_size_);
  ++page_records_;
  ++count_;
  bloom_.insert(bloom_key);
  if (page_records_ == records_per_page_) flush_leaf_page();
}

void RunWriter::flush_leaf_page() {
  if (page_records_ == 0) return;
  // Zero the bytes past the last record: the buffer starts uninitialised,
  // and a reused page still holds an earlier chunk's records.
  std::uint8_t* page = pages_.data() + buffered_pages_ * kPageSize;
  std::memset(page + page_records_ * record_size_, 0,
              kPageSize - page_records_ * record_size_);
  page_records_ = 0;
  ++leaf_pages_;
  if (++buffered_pages_ == kIoChunkPages) append_leaf_pages();
}

void RunWriter::append_leaf_pages() {
  if (buffered_pages_ == 0) return;
  file_->append({pages_.data(), buffered_pages_ * kPageSize});
  buffered_pages_ = 0;
}

std::uint64_t RunWriter::finish() {
  if (finished_) throw std::logic_error("RunWriter: double finish");
  finished_ = true;
  flush_leaf_page();
  append_leaf_pages();

  // Build the remaining index levels purely from in-memory separators: level
  // k+1 holds the first entry of every level-k page. No reads required.
  const std::size_t epp = kPageSize / record_size_;  // index entries per page
  while (true) {
    const std::vector<std::uint8_t>& cur = levels_.back();
    const std::size_t entries = cur.size() / record_size_;
    const std::size_t pages = (entries + epp - 1) / epp;
    if (pages <= 1) break;
    std::vector<std::uint8_t> up;
    for (std::size_t p = 0; p < pages; ++p) {
      const std::uint8_t* first = cur.data() + p * epp * record_size_;
      up.insert(up.end(), first, first + record_size_);
    }
    levels_.push_back(std::move(up));
  }
  // A run that fits in one leaf page needs no index at all.
  if (leaf_pages_ <= 1) levels_.clear();
  if (levels_.size() > kMaxLevels)
    throw std::runtime_error("RunWriter: level overflow");

  struct LevelOut {
    std::uint64_t start_page;
    std::uint64_t page_count;
    std::uint64_t entry_count;
  };
  std::vector<LevelOut> level_out;
  std::uint64_t next_page = leaf_pages_;
  std::vector<std::uint8_t> page_buf(kPageSize, 0);
  for (const auto& level : levels_) {
    const std::size_t entries = level.size() / record_size_;
    const std::size_t pages = (entries + epp - 1) / epp;
    level_out.push_back({next_page, pages, entries});
    for (std::size_t p = 0; p < pages; ++p) {
      std::memset(page_buf.data(), 0, page_buf.size());
      const std::size_t lo = p * epp;
      const std::size_t hi = std::min(entries, lo + epp);
      std::memcpy(page_buf.data(), level.data() + lo * record_size_,
                  (hi - lo) * record_size_);
      file_->append(page_buf);
    }
    next_page += pages;
  }

  // Bloom filter (shrunk to the actual key count), padded to a page boundary.
  bloom_.shrink_to_fit(count_ == 0 ? 1 : static_cast<std::size_t>(count_));
  std::vector<std::uint8_t> bloom_bytes;
  bloom_.serialize(bloom_bytes);
  const std::uint64_t bloom_offset = file_->size();
  const std::uint64_t bloom_size = bloom_bytes.size();
  const std::size_t pad = (kPageSize - (bloom_bytes.size() % kPageSize)) % kPageSize;
  bloom_bytes.resize(bloom_bytes.size() + pad, 0);
  file_->append(bloom_bytes);

  // Footer.
  std::vector<std::uint8_t> footer(kPageSize, 0);
  util::put_u64(footer.data() + kFooterMagic, kMagic);
  util::put_u64(footer.data() + kFooterRecordSize, record_size_);
  util::put_u64(footer.data() + kFooterRecordCount, count_);
  util::put_u64(footer.data() + kFooterLeafPages, leaf_pages_);
  util::put_u64(footer.data() + kFooterLevelCount, level_out.size());
  util::put_u64(footer.data() + kFooterBloomOffset, bloom_offset);
  util::put_u64(footer.data() + kFooterBloomSize, bloom_size);
  for (std::size_t i = 0; i < level_out.size(); ++i) {
    std::uint8_t* p = footer.data() + kFooterLevels + i * 24;
    util::put_u64(p, level_out[i].start_page);
    util::put_u64(p + 8, level_out[i].page_count);
    util::put_u64(p + 16, level_out[i].entry_count);
  }
  if (kFooterMinMax + 2 * record_size_ > kPageSize)
    throw std::runtime_error("RunWriter: record too large for footer min/max");
  if (count_ > 0) {
    std::memcpy(footer.data() + kFooterMinMax, first_record_.data(), record_size_);
    std::memcpy(footer.data() + kFooterMinMax + record_size_, last_record_.data(),
                record_size_);
  }
  file_->append(footer);
  file_->sync();
  file_size_ = file_->size();
  file_->close();
  return count_;
}

RunFile::RunFile(storage::Env& env, std::string file_name,
                 storage::BlockCache& cache)
    : env_(env), name_(std::move(file_name)), cache_(cache) {
  file_ = env_.open_file(name_);
  if (file_->size() < kPageSize || file_->size() % kPageSize != 0)
    throw std::runtime_error("RunFile: malformed file " + name_);
  std::vector<std::uint8_t> footer(kPageSize);
  const std::uint64_t footer_page = file_->size() / kPageSize - 1;
  file_->read_page(footer_page, footer);
  if (util::get_u64(footer.data() + kFooterMagic) != kMagic)
    throw std::runtime_error("RunFile: bad magic in " + name_);
  // The footer is untrusted input (a bit-flipped or truncated file must fail
  // loudly, never index with a garbage field): every value is range-checked
  // against the writer's invariants and the actual file size before use.
  const auto corrupt = [this](const char* what) -> std::runtime_error {
    return std::runtime_error(std::string("RunFile: corrupt footer (") + what +
                              ") in " + name_);
  };
  record_size_ = util::get_u64(footer.data() + kFooterRecordSize);
  record_count_ = util::get_u64(footer.data() + kFooterRecordCount);
  leaf_pages_ = util::get_u64(footer.data() + kFooterLeafPages);
  const std::uint64_t level_count = util::get_u64(footer.data() + kFooterLevelCount);
  const std::uint64_t bloom_offset = util::get_u64(footer.data() + kFooterBloomOffset);
  const std::uint64_t bloom_size = util::get_u64(footer.data() + kFooterBloomSize);
  // RunWriter enforces record_size in [1, 1024]; 0 would divide by zero two
  // lines down, and min/max below must both fit in the footer page.
  if (record_size_ == 0 || record_size_ > 1024 ||
      kFooterMinMax + 2 * record_size_ > kPageSize) {
    throw corrupt("record size");
  }
  records_per_page_ = kPageSize / record_size_;
  entries_per_index_page_ = kPageSize / record_size_;
  // Everything before the footer page is data; pages and byte ranges the
  // footer points at must stay inside it.
  const std::uint64_t data_pages = footer_page;
  const std::uint64_t data_bytes = footer_page * kPageSize;
  if (leaf_pages_ > data_pages) throw corrupt("leaf page count");
  if (record_count_ > leaf_pages_ * records_per_page_)
    throw corrupt("record count");
  if (level_count > kMaxLevels) throw corrupt("level count");
  for (std::uint64_t i = 0; i < level_count; ++i) {
    const std::uint8_t* p = footer.data() + kFooterLevels + i * 24;
    const LevelInfo info{util::get_u64(p), util::get_u64(p + 8),
                         util::get_u64(p + 16)};
    if (info.start_page > data_pages ||
        info.page_count > data_pages - info.start_page) {
      throw corrupt("index level page range");
    }
    if (info.entry_count > info.page_count * entries_per_index_page_)
      throw corrupt("index level entry count");
    levels_.push_back(info);
  }
  if (record_count_ > 0) {
    min_record_.assign(footer.data() + kFooterMinMax,
                       footer.data() + kFooterMinMax + record_size_);
    max_record_.assign(footer.data() + kFooterMinMax + record_size_,
                       footer.data() + kFooterMinMax + 2 * record_size_);
  }
  // Bloom range: the subtraction form is overflow-proof (offset + size could
  // wrap); an oversized size must also never drive the allocation below.
  if (bloom_offset > data_bytes || bloom_size > data_bytes - bloom_offset)
    throw corrupt("bloom filter range");
  // Load the Bloom filter eagerly (the paper keeps RS filters resident).
  std::vector<std::uint8_t> bloom_bytes(bloom_size);
  if (bloom_size > 0) file_->read(bloom_offset, bloom_bytes);
  bloom_ = util::BloomFilter::deserialize(bloom_bytes);
}

std::optional<std::vector<std::uint8_t>> RunFile::min_record() const {
  if (record_count_ == 0) return std::nullopt;
  return min_record_;
}

std::optional<std::vector<std::uint8_t>> RunFile::max_record() const {
  if (record_count_ == 0) return std::nullopt;
  return max_record_;
}

std::span<const std::uint8_t> RunFile::record_at(
    std::uint64_t index, std::shared_ptr<const storage::PageBuffer>& page,
    std::uint64_t& cached_page_no) const {
  const std::uint64_t page_no = index / records_per_page_;
  if (page_no != cached_page_no || page == nullptr) {
    page = cache_.get(*file_, page_no);
    cached_page_no = page_no;
  }
  return {page->data() + (index % records_per_page_) * record_size_, record_size_};
}

std::uint64_t RunFile::lower_bound(std::span<const std::uint8_t> prefix) const {
  if (record_count_ == 0) return 0;
  if (prefix.size() > record_size_)
    throw std::invalid_argument("RunFile::lower_bound: prefix too long");

  std::shared_ptr<const storage::PageBuffer> page;
  std::uint64_t cached_page_no = UINT64_MAX;

  // Reads entry `j` of index level `li`.
  auto index_entry = [&](std::size_t li, std::uint64_t j)
      -> std::span<const std::uint8_t> {
    const LevelInfo& info = levels_[li];
    const std::uint64_t page_no = info.start_page + j / entries_per_index_page_;
    if (page_no != cached_page_no || page == nullptr) {
      page = cache_.get(*file_, page_no);
      cached_page_no = page_no;
    }
    return {page->data() + (j % entries_per_index_page_) * record_size_,
            record_size_};
  };

  // Descend from the topmost level, narrowing the child-slice each step.
  std::uint64_t child = 0;  // page index within the next level down
  for (std::size_t li = levels_.size(); li-- > 0;) {
    const LevelInfo& info = levels_[li];
    const std::uint64_t slice_lo =
        (li + 1 == levels_.size()) ? 0 : child * entries_per_index_page_;
    const std::uint64_t slice_hi =
        (li + 1 == levels_.size())
            ? info.entry_count
            : std::min<std::uint64_t>(info.entry_count,
                                      slice_lo + entries_per_index_page_);
    // lower_bound over [slice_lo, slice_hi): first entry >= prefix.
    std::uint64_t lo = slice_lo, hi = slice_hi;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (prefix_cmp(index_entry(li, mid), prefix) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    child = (lo == slice_lo) ? slice_lo : lo - 1;
  }
  // `child` is now a leaf page index (0 when there are no index levels).
  const std::uint64_t base = child * records_per_page_;
  const std::uint64_t end =
      std::min<std::uint64_t>(record_count_, base + records_per_page_);
  std::uint64_t lo = base, hi = end;
  std::shared_ptr<const storage::PageBuffer> leaf_page;
  std::uint64_t leaf_cached = UINT64_MAX;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (prefix_cmp(record_at(mid, leaf_page, leaf_cached), prefix) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::span<const std::uint8_t> RunFile::Stream::record() const {
  return run_->record_at(pos_, page_, cached_page_no_);
}

RunFile::SequentialStream::SequentialStream(const RunFile& run,
                                            std::uint64_t start)
    : file_(*run.file_),
      count_(run.record_count_),
      leaf_pages_(run.leaf_pages_),
      record_size_(run.record_size_),
      records_per_page_(run.records_per_page_),
      pos_(start) {
  if (pos_ >= count_) return;  // past the end: reads and charges nothing
  const std::uint64_t page = pos_ / records_per_page_;
  buf_.resize(std::min<std::uint64_t>(kIoChunkPages, leaf_pages_ - page) *
              kPageSize);
  enter_page(page);
  slot_ = pos_ % records_per_page_;
  rec_ += slot_ * record_size_;
}

void RunFile::SequentialStream::next() {
  ++pos_;
  if (++slot_ < records_per_page_) {
    rec_ += record_size_;
    return;
  }
  if (pos_ < count_) enter_page(pos_ / records_per_page_);
}

void RunFile::SequentialStream::enter_page(std::uint64_t page) {
  if (page - buf_first_page_ >= buf_pages_) {
    buf_pages_ = std::min<std::uint64_t>(buf_.size() / kPageSize,
                                         leaf_pages_ - page);
    file_.read_ahead(page * kPageSize, {buf_.data(), buf_pages_ * kPageSize});
    buf_first_page_ = page;
  }
  file_.charge_page_reads(1);
  slot_ = 0;
  rec_ = buf_.data() + (page - buf_first_page_) * kPageSize;
}

std::unique_ptr<RunFile::Stream> RunFile::stream_from(std::uint64_t start) const {
  auto s = std::make_unique<Stream>();
  s->run_ = this;
  s->pos_ = start;
  return s;
}

std::unique_ptr<RunFile::Stream> RunFile::seek(
    std::span<const std::uint8_t> prefix) const {
  return stream_from(lower_bound(prefix));
}

}  // namespace backlog::lsm
