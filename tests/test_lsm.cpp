// Tests for the LSM layer: run files (bottom-up B-trees), merges, deletion
// vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/backlog_db.hpp"
#include "lsm/deletion_vector.hpp"
#include "lsm/merge.hpp"
#include "lsm/run_file.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"
#include "util/serde.hpp"

namespace bl = backlog::lsm;
namespace bs = backlog::storage;
namespace bu = backlog::util;

namespace {

constexpr std::size_t kRec = 16;  // test records: [be64 key][be64 payload]

std::vector<std::uint8_t> rec(std::uint64_t key, std::uint64_t payload = 0) {
  std::vector<std::uint8_t> out(kRec);
  bu::put_be64(out.data(), key);
  bu::put_be64(out.data() + 8, payload);
  return out;
}

/// Writes n sorted records with keys = base + i*stride; returns their keys.
std::vector<std::uint64_t> write_run(bs::Env& env, const std::string& name,
                                     std::uint64_t n, std::uint64_t base = 0,
                                     std::uint64_t stride = 1) {
  bl::RunWriter w(env, name, kRec, n);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t k = base + i * stride;
    w.add(rec(k, i), k);
    keys.push_back(k);
  }
  w.finish();
  return keys;
}

std::vector<std::uint64_t> collect_keys(bl::RecordStream& s) {
  std::vector<std::uint64_t> out;
  while (s.valid()) {
    out.push_back(bu::get_be64(s.record().data()));
    s.next();
  }
  return out;
}

}  // namespace

// Parameterized over run sizes that hit the interesting shapes: empty,
// single record, exactly one leaf page (256 recs at 16 B), one-over, and
// multi-level index (> 256 leaf pages -> 2 index levels).
class RunFileSizes : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Shapes, RunFileSizes,
                         ::testing::Values(0, 1, 255, 256, 257, 4096, 70000));

TEST_P(RunFileSizes, RoundTripAndLowerBound) {
  const std::uint64_t n = GetParam();
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(1024 * bs::kPageSize);
  write_run(env, "r.run", n, /*base=*/10, /*stride=*/3);
  bl::RunFile run(env, "r.run", cache);
  EXPECT_EQ(run.record_count(), n);

  // Full scan returns everything in order.
  auto s = run.scan();
  const auto keys = collect_keys(*s);
  ASSERT_EQ(keys.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(keys[i], 10 + i * 3);

  if (n == 0) {
    std::uint8_t p[8];
    bu::put_be64(p, 0);
    EXPECT_EQ(run.lower_bound({p, 8}), 0u);
    return;
  }
  EXPECT_EQ(bu::get_be64(run.min_record()->data()), 10u);
  EXPECT_EQ(bu::get_be64(run.max_record()->data()), 10 + (n - 1) * 3);

  // lower_bound agrees with the definition at boundaries, between keys and
  // beyond the ends.
  auto lb = [&](std::uint64_t key) {
    std::uint8_t p[8];
    bu::put_be64(p, key);
    return run.lower_bound({p, 8});
  };
  EXPECT_EQ(lb(0), 0u);
  EXPECT_EQ(lb(10), 0u);
  EXPECT_EQ(lb(11), 1u);    // between key 10 and 13
  EXPECT_EQ(lb(13), 1u);
  EXPECT_EQ(lb(10 + (n - 1) * 3), n - 1);
  EXPECT_EQ(lb(10 + (n - 1) * 3 + 1), n);
  // Random probes against the analytic answer.
  bu::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t probe = rng.below(10 + n * 3 + 20);
    const std::uint64_t want =
        probe <= 10 ? 0
                    : std::min<std::uint64_t>(n, (probe - 10 + 2) / 3);
    EXPECT_EQ(lb(probe), want) << "probe=" << probe;
  }
}

TEST(RunFile, SeekStreamsFromPrefix) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(1024 * bs::kPageSize);
  write_run(env, "r.run", 1000, 0, 2);  // keys 0,2,...,1998
  bl::RunFile run(env, "r.run", cache);
  std::uint8_t p[8];
  bu::put_be64(p, 500);
  auto s = run.seek({p, 8});
  ASSERT_TRUE(s->valid());
  EXPECT_EQ(bu::get_be64(s->record().data()), 500u);
}

TEST(RunFile, RejectsUnsortedInput) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bl::RunWriter w(env, "r.run", kRec, 10);
  w.add(rec(5), 5);
  EXPECT_THROW(w.add(rec(4), 4), std::logic_error);
}

TEST(RunFile, DuplicateKeysAllowed) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  bl::RunWriter w(env, "r.run", kRec, 10);
  w.add(rec(7, 1), 7);
  w.add(rec(7, 2), 7);
  w.add(rec(7, 3), 7);
  w.finish();
  bl::RunFile run(env, "r.run", cache);
  std::uint8_t p[8];
  bu::put_be64(p, 7);
  EXPECT_EQ(run.lower_bound({p, 8}), 0u);  // first of the duplicates
  auto s = run.scan();
  EXPECT_EQ(collect_keys(*s).size(), 3u);
}

TEST(RunFile, BloomFilterSkipsAbsentKeys) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_run(env, "r.run", 1000, 0, 10);  // keys 0,10,20,...
  bl::RunFile run(env, "r.run", cache);
  for (std::uint64_t k = 0; k < 10000; k += 10) {
    EXPECT_TRUE(run.may_contain(k));  // no false negatives
  }
  std::size_t fp = 0;
  for (std::uint64_t k = 1'000'000; k < 1'010'000; ++k) {
    if (run.may_contain(k)) ++fp;
  }
  EXPECT_LT(fp, 600u);  // ~2.4% expected -> allow 6%
}

TEST(RunFile, BloomShrinksForSmallRuns) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  // expected 32000 keys but only 10 added: filter must have been halved down.
  bl::RunWriter w(env, "r.run", kRec, 32000);
  for (std::uint64_t i = 0; i < 10; ++i) w.add(rec(i), i);
  w.finish();
  bl::RunFile run(env, "r.run", cache);
  EXPECT_LE(run.bloom().bit_count(), 128u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(run.may_contain(i));
}

TEST(RunFile, WriterProducesNoReads) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  const auto before = env.stats();
  write_run(env, "r.run", 50000);
  const auto delta = env.stats() - before;
  EXPECT_EQ(delta.page_reads, 0u);  // §5.1: bottom-up build, zero reads
  EXPECT_GT(delta.page_writes, 0u);
}

TEST(RunFile, StreamFromMidpoint) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_run(env, "r.run", 1000);
  bl::RunFile run(env, "r.run", cache);
  auto s = run.stream_from(990);
  EXPECT_EQ(collect_keys(*s).size(), 10u);
}

TEST(VectorStream, BasicIteration) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k : {1, 5, 9}) {
    auto r = rec(k);
    buf.insert(buf.end(), r.begin(), r.end());
  }
  bl::VectorStream s(std::move(buf), kRec);
  EXPECT_EQ(collect_keys(s), (std::vector<std::uint64_t>{1, 5, 9}));
}

TEST(Merge, InterleavesSortedInputs) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_run(env, "a.run", 100, 0, 3);   // 0,3,6,...
  write_run(env, "b.run", 100, 1, 3);   // 1,4,7,...
  write_run(env, "c.run", 100, 2, 3);   // 2,5,8,...
  bl::RunFile a(env, "a.run", cache), b(env, "b.run", cache),
      c(env, "c.run", cache);
  std::vector<std::unique_ptr<bl::RecordStream>> inputs;
  inputs.push_back(a.scan());
  inputs.push_back(b.scan());
  inputs.push_back(c.scan());
  bl::MergeStream m(std::move(inputs), kRec);
  const auto keys = collect_keys(m);
  ASSERT_EQ(keys.size(), 300u);
  for (std::uint64_t i = 0; i < 300; ++i) EXPECT_EQ(keys[i], i);
}

TEST(Merge, KeepsDuplicatesAcrossInputs) {
  std::vector<std::unique_ptr<bl::RecordStream>> inputs;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint8_t> buf;
    auto r = rec(42, rep);
    buf.insert(buf.end(), r.begin(), r.end());
    inputs.push_back(std::make_unique<bl::VectorStream>(std::move(buf), kRec));
  }
  bl::MergeStream m(std::move(inputs), kRec);
  EXPECT_EQ(collect_keys(m).size(), 3u);
}

TEST(Merge, HandlesEmptyAndNullInputs) {
  std::vector<std::unique_ptr<bl::RecordStream>> inputs;
  inputs.push_back(nullptr);
  inputs.push_back(std::make_unique<bl::VectorStream>(std::vector<std::uint8_t>{},
                                                      kRec));
  std::vector<std::uint8_t> buf = rec(1);
  inputs.push_back(std::make_unique<bl::VectorStream>(buf, kRec));
  bl::MergeStream m(std::move(inputs), kRec);
  EXPECT_EQ(collect_keys(m), std::vector<std::uint64_t>{1});
}

TEST(Merge, DedupStreamCollapsesExactDuplicates) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k : {1, 1, 1, 2, 3, 3}) {
    auto r = rec(k, 0);
    buf.insert(buf.end(), r.begin(), r.end());
  }
  auto inner = std::make_unique<bl::VectorStream>(std::move(buf), kRec);
  bl::DedupStream d(std::move(inner), kRec);
  EXPECT_EQ(collect_keys(d), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(DeletionVector, InsertContainsErase) {
  bl::DeletionVector dv(kRec);
  const auto r1 = rec(10), r2 = rec(20);
  EXPECT_FALSE(dv.contains(r1));
  dv.insert(r1);
  EXPECT_TRUE(dv.contains(r1));
  EXPECT_FALSE(dv.contains(r2));
  EXPECT_TRUE(dv.erase(r1));
  EXPECT_FALSE(dv.erase(r1));
  EXPECT_TRUE(dv.empty());
}

TEST(DeletionVector, FilteredStreamHidesEntries) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k : {1, 2, 3, 4, 5}) {
    auto r = rec(k);
    buf.insert(buf.end(), r.begin(), r.end());
  }
  bl::DeletionVector dv(kRec);
  dv.insert(rec(1));  // first (tests skip-at-init)
  dv.insert(rec(3));  // middle
  dv.insert(rec(5));  // last
  auto inner = std::make_unique<bl::VectorStream>(std::move(buf), kRec);
  bl::FilteredStream f(std::move(inner), dv);
  EXPECT_EQ(collect_keys(f), (std::vector<std::uint64_t>{2, 4}));
}

TEST(DeletionVector, EraseBlockRange) {
  bl::DeletionVector dv(kRec);
  for (std::uint64_t k : {5, 10, 15, 20, 25}) dv.insert(rec(k));
  EXPECT_EQ(dv.erase_block_range(10, 21), 3u);
  EXPECT_EQ(dv.size(), 2u);
  EXPECT_TRUE(dv.contains(rec(5)));
  EXPECT_TRUE(dv.contains(rec(25)));
}

TEST(DeletionVector, SaveLoadRoundTrip) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bl::DeletionVector dv(kRec);
  for (std::uint64_t k = 0; k < 100; k += 7) dv.insert(rec(k));
  dv.save(env, "dv.bin");
  bl::DeletionVector dv2(kRec);
  dv2.load(env, "dv.bin");
  EXPECT_EQ(dv2.size(), dv.size());
  for (std::uint64_t k = 0; k < 100; k += 7) EXPECT_TRUE(dv2.contains(rec(k)));
  // Loading a missing file yields an empty vector.
  bl::DeletionVector dv3(kRec);
  dv3.load(env, "missing.bin");
  EXPECT_TRUE(dv3.empty());
}

TEST(DeletionVector, LoadRejectsSizeMismatch) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bl::DeletionVector dv(kRec);
  dv.insert(rec(1));
  dv.save(env, "dv.bin");
  bl::DeletionVector other(kRec + 8);
  EXPECT_THROW(other.load(env, "dv.bin"), std::runtime_error);
}

// --- corrupt-run-file hardening ----------------------------------------------
// The footer is untrusted input: every field a bit flip can reach must either
// be rejected at open or lead to a well-defined (possibly wrong, never
// crashing) read. These tests patch bytes on disk directly.

namespace {

// Footer field offsets within the final page (mirror run_file.cpp).
constexpr std::uint64_t kFtRecordSize = 8;
constexpr std::uint64_t kFtRecordCount = 16;
constexpr std::uint64_t kFtLeafPages = 24;
constexpr std::uint64_t kFtLevelCount = 32;
constexpr std::uint64_t kFtBloomOffset = 40;
constexpr std::uint64_t kFtBloomSize = 48;
constexpr std::uint64_t kFtLevels = 56;

std::uint64_t footer_start(const std::filesystem::path& file) {
  return std::filesystem::file_size(file) - bs::kPageSize;
}

void poke_u64(const std::filesystem::path& file, std::uint64_t off,
              std::uint64_t value) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::uint8_t buf[8];
  bu::put_u64(buf, value);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(reinterpret_cast<const char*>(buf), 8);
}

void flip_bit(const std::filesystem::path& file, std::uint64_t off, int bit) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(off));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(off));
  f.write(&b, 1);
}

}  // namespace

TEST(RunFile, CorruptFooterFieldsRejected) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  write_run(env, "r.run", 600);  // 2+ leaf pages -> one index level
  const std::filesystem::path file =
      std::filesystem::path(dir.path()) / "r.run";
  const std::filesystem::path pristine =
      std::filesystem::path(dir.path()) / "pristine.bin";
  std::filesystem::copy_file(file, pristine);
  const std::uint64_t fs = footer_start(file);

  const auto expect_rejected = [&](std::uint64_t field, std::uint64_t value) {
    std::filesystem::copy_file(pristine, file,
                               std::filesystem::copy_options::overwrite_existing);
    poke_u64(file, fs + field, value);
    bs::BlockCache cache(16 * bs::kPageSize);
    EXPECT_THROW(bl::RunFile(env, "r.run", cache), std::runtime_error)
        << "field offset " << field << " value " << value;
  };

  expect_rejected(kFtRecordSize, 0);          // division by zero otherwise
  expect_rejected(kFtRecordSize, 2000);       // over the writer's 1024 cap
  expect_rejected(kFtRecordSize, UINT64_MAX);
  expect_rejected(kFtRecordCount, UINT64_MAX);     // over leaf capacity
  expect_rejected(kFtLeafPages, UINT64_MAX);       // past the file
  expect_rejected(kFtLevelCount, 9);               // over kMaxLevels
  expect_rejected(kFtLevelCount, UINT64_MAX);
  expect_rejected(kFtBloomOffset, UINT64_MAX);     // past the file
  expect_rejected(kFtBloomSize, UINT64_MAX);       // offset+size would wrap
  expect_rejected(kFtLevels, UINT64_MAX);          // level 0 start page
  expect_rejected(kFtLevels + 8, UINT64_MAX);      // level 0 page count
  expect_rejected(kFtLevels + 16, UINT64_MAX);     // level 0 entry count

  // And the pristine file still opens after all that.
  std::filesystem::copy_file(pristine, file,
                             std::filesystem::copy_options::overwrite_existing);
  bs::BlockCache cache(16 * bs::kPageSize);
  bl::RunFile run(env, "r.run", cache);
  EXPECT_EQ(run.record_count(), 600u);
}

TEST(RunFile, FooterBitFlipsNeverCrash) {
  // Flip every bit of the footer's structured prefix (magic through the
  // level table), one at a time. Each mutant must either throw or open and
  // answer a query — under ASan/UBSan this proves no flip reaches an
  // out-of-bounds read.
  bs::TempDir dir;
  bs::Env env(dir.path());
  write_run(env, "r.run", 600);
  const std::filesystem::path file =
      std::filesystem::path(dir.path()) / "r.run";
  const std::filesystem::path pristine =
      std::filesystem::path(dir.path()) / "pristine.bin";
  std::filesystem::copy_file(file, pristine);
  const std::uint64_t fs = footer_start(file);

  int rejected = 0, survived = 0;
  for (std::uint64_t off = 0; off < kFtLevels + 3 * 24; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::filesystem::copy_file(
          pristine, file, std::filesystem::copy_options::overwrite_existing);
      flip_bit(file, fs + off, bit);
      bs::BlockCache cache(16 * bs::kPageSize);
      try {
        bl::RunFile run(env, "r.run", cache);
        auto s = run.seek(rec(100));
        for (int i = 0; i < 4 && s->valid(); ++i) s->next();
        ++survived;
      } catch (const std::exception&) {
        ++rejected;
      }
    }
  }
  // The magic field alone guarantees a healthy rejected population; some
  // flips (e.g. min/max record bytes, low bits of counts) legitimately
  // survive as wrong-but-safe runs.
  EXPECT_GT(rejected, 64);
  SUCCEED() << rejected << " rejected, " << survived << " survived";
}

// --- sequential (maintenance) read path and chunked run writes ---------------

namespace {

/// Record `i` of a `size`-byte test run: be64 key i, then bytes that depend
/// on both i and the offset, so a record read from the wrong slot or page
/// cannot compare equal.
std::vector<std::uint8_t> wide_rec(std::size_t size, std::uint64_t i) {
  std::vector<std::uint8_t> out(size);
  bu::put_be64(out.data(), i);
  for (std::size_t j = 8; j < size; ++j)
    out[j] = static_cast<std::uint8_t>(i * 31 + j * 7);
  return out;
}

/// Writes n wide records of `size` bytes (keys 0..n-1).
void write_wide_run(bs::Env& env, const std::string& name, std::size_t size,
                    std::uint64_t n) {
  bl::RunWriter w(env, name, size, n);
  for (std::uint64_t i = 0; i < n; ++i) w.add(wide_rec(size, i), i);
  w.finish();
}

std::vector<std::vector<std::uint8_t>> collect_records(bl::RecordStream& s) {
  std::vector<std::vector<std::uint8_t>> out;
  for (; s.valid(); s.next())
    out.emplace_back(s.record().begin(), s.record().end());
  return out;
}

}  // namespace

// Record sizes that do not divide 4096 (the Backlog From/To and Combined
// sizes) crossed with run lengths around the 16-page read chunk.
class SequentialStreamShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Shapes, SequentialStreamShapes,
                         ::testing::Combine(::testing::Values(48, 56),
                                            ::testing::Values(0, 1, 15, 16, 17,
                                                              33)));

TEST_P(SequentialStreamShapes, MatchesCachedStreamAndChargesPagesTouched) {
  const auto [size, leaf_pages] = GetParam();
  const std::uint64_t rpp = bs::kPageSize / size;
  // The last leaf page is about half full.
  const std::uint64_t n = leaf_pages == 0 ? 0 : (leaf_pages - 1) * rpp + rpp / 2 + 1;
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_wide_run(env, "r.run", size, n);
  bl::RunFile run(env, "r.run", cache);
  ASSERT_EQ(run.record_count(), n);

  // 0, mid-page, mid-page in the second chunk, the last record, past the end.
  const std::uint64_t last = n == 0 ? 0 : n - 1;
  for (const std::uint64_t start :
       {std::uint64_t{0}, rpp / 2, 17 * rpp + rpp / 3, last, n, n + 5}) {
    SCOPED_TRACE(testing::Message() << "start=" << start << " n=" << n);
    auto cached = run.stream_from(start);
    const auto want = collect_records(*cached);

    const bs::IoStats io_before = env.stats();
    const bs::BlockCacheStats cache_before = cache.stats();
    auto seq = run.sequential_from(start);
    const auto got = collect_records(*seq);
    const bs::IoStats io = env.stats() - io_before;
    const bs::BlockCacheStats cache_after = cache.stats();

    EXPECT_EQ(got, want);
    const std::uint64_t touched = start < n ? last / rpp - start / rpp + 1 : 0;
    EXPECT_EQ(io.page_reads, touched);
    EXPECT_EQ(io.bytes_read, touched * bs::kPageSize);
    EXPECT_EQ(cache_after.hits, cache_before.hits);
    EXPECT_EQ(cache_after.misses, cache_before.misses);
    EXPECT_EQ(cache_after.entries, cache_before.entries);
  }
}

TEST(RunFile, SequentialStreamRecordOutlivesOtherStreams) {
  // The RecordStream lifetime contract: a record stays readable until its
  // own stream advances, whatever other streams over the same run do.
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(2 * bs::kPageSize);
  write_wide_run(env, "r.run", 48, 40 * (bs::kPageSize / 48));
  bl::RunFile run(env, "r.run", cache);
  auto a = run.sequential_from(5);
  const std::span<const std::uint8_t> held = a->record();
  auto b = run.sequential_from(0);
  auto c = run.scan();
  for (int i = 0; i < 3000; ++i) {
    b->next();
    c->next();
  }
  EXPECT_EQ(std::vector<std::uint8_t>(held.begin(), held.end()), wide_rec(48, 5));
}

TEST(RunWriter, ChunkedAppendsKeepTheOnePagePerAppendLayout) {
  // 40 leaf pages: two full 16-page appends, then 8 pages and a short one.
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(8 * bs::kPageSize);
  const std::size_t size = 56;
  const std::uint64_t rpp = bs::kPageSize / size;
  const std::uint64_t n = 40 * rpp + rpp / 4;
  const bs::IoStats before = env.stats();
  write_wide_run(env, "r.run", size, n);
  const bs::IoStats io = env.stats() - before;
  const std::uint64_t file_bytes = env.file_size("r.run");
  EXPECT_EQ(io.page_writes, file_bytes / bs::kPageSize);
  EXPECT_EQ(io.page_reads, 0u);

  // Leaf pages hold the records packed from offset 0, zero-filled after.
  std::vector<std::uint8_t> want(41 * bs::kPageSize, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto r = wide_rec(size, i);
    std::copy(r.begin(), r.end(),
              want.begin() + static_cast<std::ptrdiff_t>(
                                 (i / rpp) * bs::kPageSize + (i % rpp) * size));
  }
  std::vector<std::uint8_t> leaves(want.size());
  std::ifstream f(dir.path() / "r.run", std::ios::binary);
  f.read(reinterpret_cast<char*>(leaves.data()),
         static_cast<std::streamsize>(leaves.size()));
  EXPECT_EQ(leaves, want);

  // Both read paths return every record.
  bl::RunFile run(env, "r.run", cache);
  auto seq = run.sequential_from(0);
  auto cached = run.scan();
  const auto a = collect_records(*seq);
  EXPECT_EQ(a, collect_records(*cached));
  ASSERT_EQ(a.size(), n);
  for (std::uint64_t i = 0; i < n; i += 97) EXPECT_EQ(a[i], wide_rec(size, i));
}

// --- maintenance reads outside the block cache --------------------------------

namespace {

namespace bc = backlog::core;

bc::BackrefKey db_key(std::uint64_t block, std::uint64_t inode,
                      std::uint64_t offset) {
  bc::BackrefKey k;
  k.block = block;
  k.inode = inode;
  k.offset = offset;
  return k;
}

/// Adds and removes references over `cps` CPs, with a snapshot every 4.
void age_db(bc::BacklogDb& db, std::uint64_t seed, int cps, int ops_per_cp) {
  bu::Rng rng(seed);
  std::vector<bc::BackrefKey> live;
  for (int cp = 1; cp <= cps; ++cp) {
    for (int op = 0; op < ops_per_cp; ++op) {
      if (live.empty() || rng.chance(0.65)) {
        live.push_back(db_key(rng.below(20000), 2 + rng.below(16), rng.below(64)));
        db.add_reference(live.back());
      } else {
        const std::size_t i = rng.below(live.size());
        db.remove_reference(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
    }
    db.consistency_point();
    if (cp % 4 == 0) db.registry().take_snapshot(0);
  }
}

std::vector<std::vector<bc::BackrefEntry>> query_sample(bc::BacklogDb& db) {
  std::vector<std::vector<bc::BackrefEntry>> out;
  for (std::uint64_t b = 0; b < 20000; b += 37) out.push_back(db.query(b, 3));
  return out;
}

}  // namespace

TEST(Maintenance, LeavesTheBlockCacheUntouchedAndAnswersTheSame) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  env.set_sync(false);
  bc::BacklogOptions opts;
  opts.cache_pages = 64;         // far smaller than the volume: evictions
  opts.partition_blocks = 4096;  // five partitions
  opts.max_open_runs = 4;        // Level-0 pre-merges (merge_run_batches)
  bc::BacklogDb db(env, opts);
  age_db(db, 11, 24, 1500);
  const auto before = query_sample(db);
  const bs::BlockCacheStats cache_before = db.block_cache_stats();
  ASSERT_GT(cache_before.misses, 0u);

  const bc::MaintenanceStats ms = db.maintain();
  EXPECT_GT(ms.input_records, 0u);
  EXPECT_GT(ms.pages_read, 0u);  // sequential reads are still charged
  const bs::BlockCacheStats cache_after = db.block_cache_stats();
  EXPECT_EQ(cache_after.hits, cache_before.hits);
  EXPECT_EQ(cache_after.misses, cache_before.misses);  // no inserts
  EXPECT_EQ(cache_after.evictions, cache_before.evictions);

  EXPECT_EQ(query_sample(db), before);
}

TEST(Maintenance, FailedRunWriteDuringCpLeavesNoInstalledHalfRun) {
  // A CP flush whose run write tears or fails must not leave a run that a
  // reopen installs: the manifest never names it, and reopening deletes it.
  for (const auto mode : {bs::Env::WriteFaultMode::kTornPage,
                          bs::Env::WriteFaultMode::kEio}) {
    for (const std::uint64_t after : {0, 1, 2}) {
      SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode)
                                      << " after=" << after);
      bs::TempDir dir;
      std::vector<bc::CombinedRecord> committed;
      std::vector<std::string> committed_files;
      {
        bs::Env env(dir.path());
        bc::BacklogDb db(env);
        age_db(db, 5, 3, 500);
        committed = db.scan_all();
        committed_files = env.list_files();
        // One CP worth of From records in one partition: ~36 leaf pages,
        // so the run's leaf pages take three appends.
        for (std::uint64_t i = 0; i < 3000; ++i)
          db.add_reference(db_key(i, 40, i));
        env.set_write_fault({mode, after, /*sticky=*/true});
        EXPECT_ANY_THROW(db.consistency_point());
      }
      bs::Env env(dir.path());
      bc::BacklogDb db(env);
      EXPECT_EQ(env.list_files(), committed_files);
      EXPECT_EQ(db.scan_all(), committed);
    }
  }
}
