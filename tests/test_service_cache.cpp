// The service-wide cache stack: BlockCache concurrency + invalidation, the
// per-volume epoch-tagged ResultCache, and the VolumeManager wiring that
// binds them (shared budget, CoW dedup, cache_stats/clear_caches).
//
// The correctness bar throughout: a cache may only ever change how many
// pages are read, never what a query answers. Every test drives a workload
// whose answers are known and checks them with caching forced into its
// nastiest regime (constant eviction, racing invalidation, epoch churn).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/backlog_db.hpp"
#include "service/service.hpp"
#include "storage/block_cache.hpp"
#include "storage/env.hpp"

namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;

namespace {

bc::BackrefKey key(bc::BlockNo b, bc::InodeNo ino = 2) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = ino;
  k.length = 1;
  return k;
}

bsvc::ServiceOptions service_options(const std::filesystem::path& root,
                                     std::size_t shards = 2) {
  bsvc::ServiceOptions o;
  o.shards = shards;
  o.root = root;
  o.db_options.expected_ops_per_cp = 512;
  o.sync_writes = false;
  return o;
}

void fill_volume(bsvc::VolumeManager& vm, const std::string& tenant,
                 std::uint64_t blocks, int cps = 4) {
  for (int cp = 0; cp < cps; ++cp) {
    std::vector<bsvc::UpdateOp> batch;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      bsvc::UpdateOp op;
      op.kind = bsvc::UpdateOp::Kind::kAdd;
      op.key = key(b * cps + cp);
      batch.push_back(op);
    }
    vm.apply_batch(tenant, std::move(batch)).get();
    vm.consistency_point(tenant).get();
  }
}

}  // namespace

// --- BlockCache concurrency -------------------------------------------------

TEST(BlockCacheConcurrency, EraseFileRacesReaders) {
  // Readers hammer get() on two files while an invalidator loops
  // erase_file()/clear() against them. Under TSan this is the data-race
  // proof; everywhere it checks that a page handed out is always the right
  // page (a reader may hold a shared_ptr to an erased entry — that is the
  // designed behavior, the bytes are immutable).
  bs::TempDir dir;
  bs::Env env(dir.path());
  constexpr std::uint64_t kPages = 8;
  for (const char* name : {"a.run", "b.run"}) {
    auto f = env.create_file(name);
    std::vector<std::uint8_t> data(kPages * bs::kPageSize);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>((i / bs::kPageSize) ^ name[0]);
    }
    f->append(data);
    f->sync();
  }
  auto fa = env.open_file("a.run");
  auto fb = env.open_file("b.run");

  bs::BlockCache cache(4 * bs::kPageSize, /*shards=*/2);  // constant eviction
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const bs::RandomAccessFile& f = (t % 2 == 0) ? *fa : *fb;
      const std::uint8_t tag = (t % 2 == 0) ? 'a' : 'b';
      std::uint64_t page = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        page = (page + 3) % kPages;
        const auto p = cache.get(f, page);
        ASSERT_EQ((*p)[0], static_cast<std::uint8_t>(page ^ tag));
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.erase_file(fa->dev(), fa->ino());
      cache.erase_file(fb->dev(), fb->ino());
      cache.clear();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& r : readers) r.join();
  invalidator.join();

  EXPECT_GT(checked.load(), 0u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, checked.load());
}

// --- ResultCache epoch invalidation ------------------------------------------

TEST(ResultCache, EpochTagInvalidatesAcrossEveryMutatingVerb) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions o;
  o.result_cache_entries = 32;
  bc::BacklogDb db(env, o);

  const auto cached_query = [&](bc::BlockNo b) { return db.query(b); };
  const auto expect_fresh_then_hit = [&](bc::BlockNo b, const char* what) {
    const auto first = cached_query(b);  // populate (miss, or hit if warm)
    const auto s0 = db.result_cache_stats();
    const auto second = cached_query(b);
    EXPECT_EQ(first, second);
    const auto s1 = db.result_cache_stats();
    EXPECT_EQ(s1.hits, s0.hits + 1) << what;
    EXPECT_EQ(s1.misses, s0.misses) << what;
    return first;
  };

  db.add_reference(key(100));
  db.consistency_point();

  // Populate + hit.
  expect_fresh_then_hit(100, "baseline");

  // Update: bumps the db mutation counter -> cached entry is stale.
  db.add_reference(key(100, /*ino=*/3));
  {
    const auto before = db.result_cache_stats();
    const auto r = db.query(100);
    EXPECT_EQ(r.size(), 2u);  // ws entry + run entry, not the stale single
    const auto after = db.result_cache_stats();
    EXPECT_EQ(after.stale_hits, before.stale_hits + 1) << "update";
  }

  // Consistency point: stale again (live-view epoch moved).
  const auto pre_cp = db.query(100);
  db.consistency_point();
  {
    const auto before = db.result_cache_stats();
    const auto r = db.query(100);
    EXPECT_NE(r, pre_cp);  // versions advanced with the CP
    EXPECT_EQ(db.result_cache_stats().stale_hits, before.stale_hits + 1)
        << "consistency_point";
  }

  // Snapshot (registry mutation, no db write): must invalidate — masking
  // depends on retained versions.
  expect_fresh_then_hit(100, "pre-snapshot");
  const bc::Epoch snap_v = db.registry().take_snapshot(0);
  {
    const auto before = db.result_cache_stats();
    static_cast<void>(db.query(100));  // only the stale-hit count is checked
    EXPECT_EQ(db.result_cache_stats().stale_hits, before.stale_hits + 1)
        << "take_snapshot";
  }

  // Clone (registry mutation): same rule.
  expect_fresh_then_hit(100, "pre-clone");
  const bc::LineId clone = db.registry().create_clone(0, snap_v);
  {
    const auto before = db.result_cache_stats();
    static_cast<void>(db.query(100));  // only the stale-hit count is checked
    EXPECT_EQ(db.result_cache_stats().stale_hits, before.stale_hits + 1)
        << "create_clone";
  }

  // Snapshot deletion (registry mutation): same rule.
  expect_fresh_then_hit(100, "pre-delete");
  db.registry().kill_line(clone);
  {
    const auto before = db.result_cache_stats();
    static_cast<void>(db.query(100));  // only the stale-hit count is checked
    EXPECT_EQ(db.result_cache_stats().stale_hits, before.stale_hits + 1)
        << "kill_line";
  }

  // Maintenance: purging changes query_raw-visible state; the mutation
  // counter bumps even when masked answers are invariant.
  expect_fresh_then_hit(100, "pre-maintain");
  db.maintain();
  {
    const auto before = db.result_cache_stats();
    static_cast<void>(db.query(100));  // only the stale-hit count is checked
    EXPECT_EQ(db.result_cache_stats().stale_hits, before.stale_hits + 1)
        << "maintain";
  }
}

// --- service wiring -----------------------------------------------------------

TEST(ServiceCache, TinySharedBudgetForcesEvictionKeepsAnswers) {
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir.path());
  so.cache.capacity_bytes = 2 * bs::kPageSize;  // pathological: ~1 page/stripe
  so.cache.block_cache_shards = 2;
  bsvc::VolumeManager vm(so);
  for (const char* t : {"alice", "bob"}) {
    vm.open_volume(t);
    fill_volume(vm, t, 400);
  }
  // Two query sweeps; the second must return identical answers even though
  // nearly every page was evicted between sweeps.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const char* t : {"alice", "bob"}) {
      for (bc::BlockNo b = 0; b < 1600; b += 97) {
        const auto r = vm.query(t, b).get();
        ASSERT_EQ(r.size(), 1u) << t << " block " << b << " sweep " << sweep;
      }
    }
  }
  const auto s = vm.block_cache().stats();
  EXPECT_GT(s.misses, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, 2u);  // never over budget
  EXPECT_LE(s.bytes, so.cache.capacity_bytes);
}

TEST(ServiceCache, CapacityZeroDisablesPageCaching) {
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir.path());
  so.cache.capacity_bytes = 0;  // the paper's cold-cache configuration
  bsvc::VolumeManager vm(so);
  vm.open_volume("alice");
  fill_volume(vm, "alice", 200);
  for (bc::BlockNo b = 0; b < 800; b += 31) {
    ASSERT_EQ(vm.query("alice", b).get().size(), 1u);
  }
  const auto s = vm.block_cache().stats();
  EXPECT_FALSE(vm.block_cache().enabled());
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);  // reads flowed through, nothing stuck
}

TEST(ServiceCache, CowCloneDedupesCachedPages) {
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir.path());
  bsvc::VolumeManager vm(so);
  vm.open_volume("alice");
  fill_volume(vm, "alice", 400);
  const bc::Epoch snap = vm.take_snapshot("alice").get();
  vm.clone_volume("alice", "beta", 0, snap);

  // Warm the cache through the source...
  for (bc::BlockNo b = 0; b < 1600; b += 13) vm.query("alice", b).get();
  const auto warm = vm.block_cache().stats();
  EXPECT_GT(warm.entries, 0u);

  // ...then read the same history through the clone: its runs are hard
  // links to alice's, so (dev, ino, page) keys match and the sweep is
  // nearly all hits — no second copy of the shared pages is cached.
  for (bc::BlockNo b = 0; b < 1600; b += 13) vm.query("beta", b).get();
  const auto after = vm.block_cache().stats();
  EXPECT_GT(after.hits, warm.hits);
  // The clone's sweep reads only pages alice already cached (plus its own
  // tiny manifest delta) — entry count must not double.
  EXPECT_LT(after.entries, 2 * warm.entries);
}

TEST(ServiceCache, ClearCachesAndReportRoundTrip) {
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir.path());
  so.cache.result_cache_entries = 64;
  bsvc::VolumeManager vm(so);
  vm.open_volume("alice");
  fill_volume(vm, "alice", 100);
  vm.query("alice", 5).get();
  vm.query("alice", 5).get();  // result-cache hit

  auto report = vm.cache_stats();
  EXPECT_TRUE(report.block_shared);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].tenant, "alice");
  EXPECT_GE(report.tenants[0].result.hits, 1u);
  EXPECT_GT(report.block.entries, 0u);

  vm.clear_caches();
  report = vm.cache_stats();
  EXPECT_EQ(report.block.entries, 0u);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].result.entries, 0u);
  // Cold again, but answers unchanged.
  ASSERT_EQ(vm.query("alice", 5).get().size(), 1u);
}

TEST(ServiceCache, LegacyPerVolumeModeStillWorks) {
  // The compat shim: shared cache off, every db builds a private cache from
  // the deprecated cache_pages knob; the service-wide cache stays disabled.
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir.path());
  so.cache.enable_block_cache = false;
  so.db_options.cache_pages = 64;
  bsvc::VolumeManager vm(so);
  vm.open_volume("alice");
  fill_volume(vm, "alice", 200);
  for (bc::BlockNo b = 0; b < 800; b += 31) {
    ASSERT_EQ(vm.query("alice", b).get().size(), 1u);
  }
  const auto report = vm.cache_stats();
  EXPECT_FALSE(report.block_shared);
  // The report sums the per-volume private caches: alice's 64-page budget
  // shows up, and her read traffic is accounted.
  EXPECT_EQ(report.block.capacity_bytes, 64 * bs::kPageSize);
  EXPECT_GT(report.block.hits + report.block.misses, 0u);
}

TEST(ServiceCache, DestroyVolumeInvalidatesOnlyLastLinks) {
  // destroy_volume deletes outside the volume's Env (the Env is already
  // closed), so the service must do the last-link invalidation itself.
  // Pages of runs still shared with a clone survive; sole-owned pages go.
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir.path());
  bsvc::VolumeManager vm(so);
  vm.open_volume("alice");
  fill_volume(vm, "alice", 400);
  const bc::Epoch snap = vm.take_snapshot("alice").get();
  vm.clone_volume("alice", "beta", 0, snap);
  for (bc::BlockNo b = 0; b < 1600; b += 13) vm.query("alice", b).get();
  const auto warm = vm.block_cache().stats();
  ASSERT_GT(warm.entries, 0u);

  vm.destroy_volume("alice");
  // beta still holds links to the shared runs, so the bulk of the cached
  // pages must survive and beta's queries still verify (clone queries
  // return the inherited record expanded into the clone's line too).
  for (bc::BlockNo b = 0; b < 1600; b += 97) {
    ASSERT_FALSE(vm.query("beta", b).get().empty());
  }
  vm.destroy_volume("beta");
  // Last links gone: everything cached for those files must be dropped.
  EXPECT_GT(vm.block_cache().stats().invalidations, 0u);
}
