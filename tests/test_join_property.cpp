// Property tests: the streaming outer join must agree with a brute-force
// reference implementation on randomly generated From/To tables, including
// multi-group inputs, duplicate epochs, overrides and annihilating pairs;
// and the whole record-stream stack (nested merges over cached run files,
// vector streams and deletion-vector filters) must agree with a plain sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/join.hpp"
#include "lsm/deletion_vector.hpp"
#include "lsm/merge.hpp"
#include "lsm/run_file.hpp"
#include "storage/block_cache.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"

namespace bc = backlog::core;
namespace bl = backlog::lsm;
namespace bs = backlog::storage;
namespace bu = backlog::util;

namespace {

/// Reference implementation, straight from §4.2.1: pair each From (ascending)
/// with the smallest unused To > from; leftovers join ∞ / 0; from == to
/// pairs annihilate.
std::vector<bc::CombinedRecord> brute_force(const bc::BackrefKey& key,
                                            std::vector<bc::Epoch> froms,
                                            std::vector<bc::Epoch> tos) {
  std::sort(froms.begin(), froms.end());
  std::sort(tos.begin(), tos.end());
  std::vector<bool> to_used(tos.size(), false);
  std::vector<bc::CombinedRecord> out;
  for (const bc::Epoch f : froms) {
    bool matched = false;
    for (std::size_t i = 0; i < tos.size(); ++i) {
      if (to_used[i] || tos[i] < f) continue;
      to_used[i] = true;
      matched = true;
      if (tos[i] != f) out.push_back({key, f, tos[i]});  // f==to: annihilate
      break;
    }
    if (!matched) out.push_back({key, f, bc::kInfinity});
  }
  for (std::size_t i = 0; i < tos.size(); ++i) {
    if (!to_used[i]) out.push_back({key, 0, tos[i]});
  }
  std::sort(out.begin(), out.end());
  return out;
}

class JoinProperty : public ::testing::TestWithParam<std::uint64_t> {};

using Record = std::vector<std::uint8_t>;

/// Builds random stream stacks over a given sorted multiset of 48-byte
/// From/To records. Run files sit behind a three-page block cache, so pages
/// are evicted while merges hold cached record pointers into them.
class StackBuilder {
 public:
  explicit StackBuilder(bu::Rng& rng)
      : env_(dir_.path()), cache_(3 * bs::kPageSize, 1), dv_(kRecSize), rng_(rng) {
    env_.set_sync(false);
  }

  /// A stream that yields exactly `visible` (sorted). Filtered inputs also
  /// carry records that the deletion vector hides.
  std::unique_ptr<bl::RecordStream> build(const std::vector<Record>& visible,
                                          int depth) {
    const std::size_t k = 1 + rng_.below(4);
    std::vector<std::vector<Record>> parts(k);
    for (const Record& r : visible) parts[rng_.below(k)].push_back(r);
    std::vector<std::unique_ptr<bl::RecordStream>> inputs;
    for (std::size_t i = 0; i < k; ++i) {
      const std::vector<Record>& part = parts[i];
      if (rng_.chance(0.2)) inputs.push_back(nullptr);
      if (rng_.chance(0.2)) inputs.push_back(run_stream({}));
      if (rng_.chance(0.2)) inputs.push_back(vector_stream({}));
      // Every merge has at least one run-file input, so every stack reads
      // through (and evicts from) the block cache.
      switch (i == 0 ? 0 : rng_.below(depth > 0 ? 4 : 3)) {
        case 0: inputs.push_back(run_stream(part)); break;
        case 1: inputs.push_back(vector_stream(part)); break;
        case 2: inputs.push_back(filtered_stream(part)); break;
        default: inputs.push_back(build(part, depth - 1)); break;
      }
    }
    return std::make_unique<bl::MergeStream>(std::move(inputs), kRecSize);
  }

  [[nodiscard]] std::uint64_t evictions() const { return cache_.stats().evictions; }

 private:
  static constexpr std::size_t kRecSize = bc::kFromRecordSize;

  std::unique_ptr<bl::RecordStream> run_stream(const std::vector<Record>& recs) {
    const std::string name = "r" + std::to_string(runs_.size()) + ".run";
    bl::RunWriter w(env_, name, kRecSize, recs.size());
    for (const Record& r : recs) w.add(r, bu::get_be64(r.data()));
    w.finish();
    runs_.push_back(std::make_unique<bl::RunFile>(env_, name, cache_));
    return runs_.back()->scan();
  }

  static std::unique_ptr<bl::RecordStream> vector_stream(
      const std::vector<Record>& recs) {
    std::vector<std::uint8_t> buf;
    for (const Record& r : recs) buf.insert(buf.end(), r.begin(), r.end());
    return std::make_unique<bl::VectorStream>(std::move(buf), kRecSize);
  }

  /// `recs` plus hidden copies (epoch's top byte set, so no visible record
  /// equals one) registered in the deletion vector, over a run or a vector.
  std::unique_ptr<bl::RecordStream> filtered_stream(std::vector<Record> recs) {
    const std::size_t n = recs.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng_.chance(0.5)) continue;
      Record hidden = recs[i];
      hidden[bc::kKeySize] = 0x7f;
      dv_.insert(hidden);
      recs.push_back(std::move(hidden));
    }
    std::sort(recs.begin(), recs.end());
    auto in = rng_.chance(0.5) ? run_stream(recs) : vector_stream(recs);
    return std::make_unique<bl::FilteredStream>(std::move(in), dv_);
  }

  bs::TempDir dir_;
  bs::Env env_;
  bs::BlockCache cache_;
  bl::DeletionVector dv_;
  bu::Rng& rng_;
  std::vector<std::unique_ptr<bl::RunFile>> runs_;
};

/// Random (key, epoch) records over a small key space, with exact
/// duplicates; sorted. `encode` is bc::encode_from or bc::encode_to.
template <typename Rec, typename Encode>
std::vector<Record> random_records(bu::Rng& rng, std::size_t n, Encode encode) {
  std::vector<Record> out;
  while (out.size() < n) {
    Rec r;
    r.key.block = rng.below(300);
    r.key.inode = 2 + rng.below(3);
    r.key.offset = rng.below(2);
    r.key.line = rng.below(2);
    if constexpr (std::is_same_v<Rec, bc::FromRecord>) {
      r.from = 1 + rng.below(20);
    } else {
      r.to = 1 + rng.below(20);
    }
    Record bytes(bc::kFromRecordSize);
    encode(r, bytes.data());
    if (rng.chance(0.15)) out.push_back(bytes);  // duplicate across inputs
    out.push_back(std::move(bytes));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Record> drain(bl::RecordStream& s) {
  std::vector<Record> out;
  while (s.valid()) {
    out.emplace_back(s.record().begin(), s.record().end());
    s.next();
  }
  return out;
}

class StreamStackProperty : public ::testing::TestWithParam<std::uint64_t> {};

}  // namespace

INSTANTIATE_TEST_SUITE_P(Seeds, StreamStackProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST_P(StreamStackProperty, NestedMergeMatchesSort) {
  bu::Rng rng(GetParam() * 104729 + 7);
  StackBuilder builder(rng);
  const auto expected =
      random_records<bc::FromRecord>(rng, 3000, bc::encode_from);
  auto stack = builder.build(expected, /*depth=*/2);
  const auto merged = drain(*stack);
  ASSERT_EQ(merged.size(), expected.size());
  EXPECT_TRUE(merged == expected);
  EXPECT_GT(builder.evictions(), 0u);
}

TEST_P(StreamStackProperty, JoinOverStacksMatchesGroupedJoin) {
  bu::Rng rng(GetParam() * 15485863 + 11);
  auto froms = random_records<bc::FromRecord>(rng, 1500, bc::encode_from);
  auto tos = random_records<bc::ToRecord>(rng, 1500, bc::encode_to);
  // A group in the middle whose only From and To annihilate (from == to):
  // the join must continue past it.
  const bc::BackrefKey gone{150, 99, 0, 1, 0};
  Record f(bc::kFromRecordSize), t(bc::kToRecordSize);
  bc::encode_from({gone, 7}, f.data());
  bc::encode_to({gone, 7}, t.data());
  froms.insert(std::upper_bound(froms.begin(), froms.end(), f), f);
  tos.insert(std::upper_bound(tos.begin(), tos.end(), t), t);

  std::map<bc::BackrefKey, std::pair<std::vector<bc::Epoch>, std::vector<bc::Epoch>>>
      groups;
  for (const Record& r : froms) {
    const auto d = bc::decode_from(r.data());
    groups[d.key].first.push_back(d.from);
  }
  for (const Record& r : tos) {
    const auto d = bc::decode_to(r.data());
    groups[d.key].second.push_back(d.to);
  }
  std::vector<Record> expected;
  for (const auto& [key, ft] : groups) {
    for (const bc::CombinedRecord& c : bc::join_group(key, ft.first, ft.second)) {
      Record bytes(bc::kCombinedRecordSize);
      bc::encode_combined(c, bytes.data());
      expected.push_back(std::move(bytes));
    }
  }

  StackBuilder from_builder(rng), to_builder(rng);
  bc::OuterJoinStream join(from_builder.build(froms, 2), to_builder.build(tos, 2));
  const auto joined = drain(join);
  ASSERT_EQ(joined.size(), expected.size());
  EXPECT_TRUE(joined == expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinProperty, ::testing::Range<std::uint64_t>(0, 12));

TEST_P(JoinProperty, StreamMatchesBruteForce) {
  bu::Rng rng(GetParam() * 7919 + 1);
  // Generate random per-group epoch sets over a handful of keys.
  std::map<bc::BackrefKey, std::pair<std::vector<bc::Epoch>, std::vector<bc::Epoch>>>
      groups;
  const int n_groups = 1 + static_cast<int>(rng.below(20));
  for (int g = 0; g < n_groups; ++g) {
    bc::BackrefKey key;
    key.block = rng.below(50);
    key.inode = 2 + rng.below(4);
    key.offset = rng.below(3);
    key.length = 1;
    key.line = rng.below(3);
    auto& [froms, tos] = groups[key];
    const int nf = static_cast<int>(rng.below(6));
    const int nt = static_cast<int>(rng.below(6));
    for (int i = 0; i < nf; ++i) froms.push_back(1 + rng.below(30));
    for (int i = 0; i < nt; ++i) tos.push_back(1 + rng.below(30));
  }

  // Build the encoded sorted streams.
  std::vector<std::uint8_t> from_buf, to_buf;
  std::vector<bc::FromRecord> from_recs;
  std::vector<bc::ToRecord> to_recs;
  for (auto& [key, ft] : groups) {
    for (const bc::Epoch f : ft.first) from_recs.push_back({key, f});
    for (const bc::Epoch t : ft.second) to_recs.push_back({key, t});
  }
  std::sort(from_recs.begin(), from_recs.end());
  std::sort(to_recs.begin(), to_recs.end());
  for (const auto& r : from_recs) {
    from_buf.resize(from_buf.size() + bc::kFromRecordSize);
    bc::encode_from(r, from_buf.data() + from_buf.size() - bc::kFromRecordSize);
  }
  for (const auto& r : to_recs) {
    to_buf.resize(to_buf.size() + bc::kToRecordSize);
    bc::encode_to(r, to_buf.data() + to_buf.size() - bc::kToRecordSize);
  }

  bc::OuterJoinStream join(
      std::make_unique<bl::VectorStream>(std::move(from_buf), bc::kFromRecordSize),
      std::make_unique<bl::VectorStream>(std::move(to_buf), bc::kToRecordSize));
  std::vector<bc::CombinedRecord> streamed;
  while (join.valid()) {
    streamed.push_back(bc::decode_combined(join.record().data()));
    join.next();
  }

  std::vector<bc::CombinedRecord> expected;
  for (const auto& [key, ft] : groups) {
    auto group = brute_force(key, ft.first, ft.second);
    expected.insert(expected.end(), group.begin(), group.end());
  }
  std::sort(expected.begin(), expected.end());

  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i], expected[i]) << "index " << i;
  }
}
