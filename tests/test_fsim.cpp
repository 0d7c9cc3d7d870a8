// Tests of the write-anywhere file-system simulator itself.
#include <gtest/gtest.h>

#include "fsim/fsim.hpp"
#include "fsim/verifier.hpp"
#include "storage/env.hpp"

namespace bf = backlog::fsim;
namespace bc = backlog::core;
namespace bs = backlog::storage;

namespace {
bf::FsimOptions small_opts() {
  bf::FsimOptions o;
  o.ops_per_cp = 1000000;  // manual CPs in most tests
  o.dedup_fraction = 0;    // deterministic unless a test enables it
  return o;
}
}  // namespace

TEST(Fsim, CreateWriteDeleteLifecycle) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 4);
  EXPECT_TRUE(fs.file_exists(0, ino));
  EXPECT_EQ(fs.file_size_blocks(0, ino), 4u);
  EXPECT_EQ(fs.stats().allocated_blocks, 4u);

  fs.write_file(0, ino, 1, 2);  // CoW of blocks 1-2
  EXPECT_EQ(fs.stats().allocated_blocks, 4u);  // old freed, new allocated
  EXPECT_EQ(fs.stats().block_writes, 6u);
  EXPECT_EQ(fs.stats().block_frees, 2u);

  fs.delete_file(0, ino);
  EXPECT_FALSE(fs.file_exists(0, ino));
  EXPECT_EQ(fs.stats().allocated_blocks, 0u);
}

TEST(Fsim, WriteExtendsFile) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 2);
  fs.write_file(0, ino, 5, 3);  // creates a hole at [2,5)
  EXPECT_EQ(fs.file_size_blocks(0, ino), 8u);
  EXPECT_EQ(fs.stats().allocated_blocks, 5u);  // 2 original + 3 written
}

TEST(Fsim, TruncateFreesTail) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 8);
  fs.truncate_file(0, ino, 3);
  EXPECT_EQ(fs.file_size_blocks(0, ino), 3u);
  EXPECT_EQ(fs.stats().allocated_blocks, 3u);
  // Truncate past EOF is a no-op.
  fs.truncate_file(0, ino, 10);
  EXPECT_EQ(fs.file_size_blocks(0, ino), 3u);
}

TEST(Fsim, FreedBlocksAreReused) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto a = fs.create_file(0, 4);
  const auto high_water = fs.max_block();
  fs.delete_file(0, a);
  fs.create_file(0, 4);
  EXPECT_EQ(fs.max_block(), high_water) << "allocator must reuse freed blocks";
}

TEST(Fsim, SnapshotKeepsBlocksAlive) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 4);
  const auto snap = fs.take_snapshot(0);
  fs.consistency_point();
  fs.delete_file(0, ino);
  // Blocks still referenced by the snapshot image.
  EXPECT_EQ(fs.stats().allocated_blocks, 4u);
  fs.delete_snapshot(0, snap);
  EXPECT_EQ(fs.stats().allocated_blocks, 0u);
}

TEST(Fsim, CloneSharesThenDiverges) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 4);
  const auto snap = fs.take_snapshot(0);
  fs.consistency_point();
  const auto clone = fs.create_clone(0, snap);
  EXPECT_EQ(fs.stats().allocated_blocks, 4u);  // fully shared
  fs.write_file(clone, ino, 0, 1);             // CoW in the clone
  EXPECT_EQ(fs.stats().allocated_blocks, 5u);  // one block diverged
  // Parent unchanged.
  EXPECT_EQ(fs.live_image(0).at(ino)->blocks[0],
            fs.snapshot_images(0).at(snap).at(ino)->blocks[0]);
  EXPECT_NE(fs.live_image(clone).at(ino)->blocks[0],
            fs.live_image(0).at(ino)->blocks[0]);
}

TEST(Fsim, DeleteCloneHeadReleasesBlocks) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  fs.create_file(0, 4);
  const auto snap = fs.take_snapshot(0);
  fs.consistency_point();
  const auto clone = fs.create_clone(0, snap);
  fs.consistency_point();
  fs.delete_clone_head(clone);
  // 4 original + snapshot copy refs stay; clone refs released.
  EXPECT_EQ(fs.stats().allocated_blocks, 4u);
  EXPECT_FALSE(fs.registry().line_live(clone));
}

TEST(Fsim, DedupSharesBlocks) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FsimOptions o = small_opts();
  o.dedup_fraction = 0.5;
  o.rng_seed = 7;
  bf::FileSystem fs(env, o);
  for (int i = 0; i < 50; ++i) fs.create_file(0, 10);
  EXPECT_GT(fs.stats().dedup_hits, 50u);
  EXPECT_LT(fs.stats().allocated_blocks, 500u);
  EXPECT_EQ(fs.stats().block_writes, 500u);
}

TEST(Fsim, CpTriggerByOpCount) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FsimOptions o = small_opts();
  o.ops_per_cp = 16;
  bf::FileSystem fs(env, o);
  fs.create_file(0, 10);
  EXPECT_FALSE(fs.maybe_consistency_point().has_value());
  fs.create_file(0, 10);
  const auto s = fs.maybe_consistency_point();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->block_ops, 20u);
  EXPECT_EQ(fs.stats().cps_taken, 1u);
}

TEST(Fsim, CpTriggerByTime) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  fs.create_file(0, 1);
  fs.advance_time(5.0);
  EXPECT_FALSE(fs.maybe_consistency_point().has_value());
  fs.advance_time(6.0);
  EXPECT_TRUE(fs.maybe_consistency_point().has_value());
  // No ops since CP -> the time trigger alone does not fire again.
  fs.advance_time(20.0);
  EXPECT_FALSE(fs.maybe_consistency_point().has_value());
}

TEST(Fsim, JournalRecordsOpsAndClearsAtCp) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 2);
  fs.write_file(0, ino, 0, 1);
  EXPECT_EQ(fs.journal().size(), 4u);  // 2 adds + (remove+add)
  fs.consistency_point();
  EXPECT_TRUE(fs.journal().empty());
}

TEST(Fsim, VerifierAcceptsSimpleState) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 8);
  fs.take_snapshot(0);
  fs.consistency_point();
  fs.write_file(0, ino, 0, 4);
  fs.consistency_point();
  const auto result = bf::verify_backrefs(fs);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GT(result.ground_truth_refs, 0u);
  EXPECT_EQ(result.ground_truth_refs, result.db_refs);
}

TEST(Fsim, VerifierCatchesInjectedCorruption) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  fs.create_file(0, 4);
  fs.consistency_point();
  // Inject a spurious reference directly into the db, bypassing fsim. The
  // block must lie inside the allocated space or the verifier's sweep of
  // [0, max_block) would never see it.
  bc::BackrefKey bogus;
  bogus.block = 2;
  bogus.inode = 77;
  bogus.offset = 9;
  bogus.length = 1;
  bogus.line = 0;
  fs.db().add_reference(bogus);
  fs.db().consistency_point();  // advances the shared registry's CP
  const auto result = bf::verify_backrefs(fs);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.errors.empty());
}

TEST(Fsim, RelocateExtentUpdatesPointersAndBackrefs) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 4);
  const auto snap = fs.take_snapshot(0);
  fs.consistency_point();
  const bf::BlockNo old0 = fs.live_image(0).at(ino)->blocks[0];

  const bf::BlockNo target = 10000;
  const auto updated = fs.relocate_extent(old0, 1, target);
  EXPECT_EQ(updated, 2u);  // live + snapshot image pointers
  EXPECT_EQ(fs.live_image(0).at(ino)->blocks[0], target);
  EXPECT_EQ(fs.snapshot_images(0).at(snap).at(ino)->blocks[0], target);
  fs.consistency_point();
  const auto result = bf::verify_backrefs(fs);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
}

TEST(Fsim, RelocateRejectsBadTargets) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  const auto ino = fs.create_file(0, 4);
  const bf::BlockNo b0 = fs.live_image(0).at(ino)->blocks[0];
  const bf::BlockNo b1 = fs.live_image(0).at(ino)->blocks[1];
  EXPECT_THROW(fs.relocate_extent(b0, 1, b1), std::invalid_argument);
}

TEST(Fsim, BaselineSinkModeHasNoDb) {
  bf::NullSink sink;
  bf::FileSystem fs(small_opts(), sink);
  fs.create_file(0, 4);
  fs.consistency_point();
  EXPECT_FALSE(fs.has_db());
  EXPECT_THROW(static_cast<void>(fs.db()), std::logic_error);
  EXPECT_EQ(fs.current_cp(), 2u);  // own registry advanced
}

TEST(Fsim, ErrorsOnUnknownTargets) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bf::FileSystem fs(env, small_opts());
  EXPECT_THROW(fs.write_file(0, 999, 0, 1), std::invalid_argument);
  EXPECT_THROW(fs.delete_file(5, 1), std::invalid_argument);
  EXPECT_THROW(fs.delete_snapshot(0, 42), std::invalid_argument);
  EXPECT_THROW(fs.create_clone(0, 42), std::invalid_argument);
}
