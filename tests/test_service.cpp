// Tests of the multi-tenant volume service: tenant routing, the worker
// pool's foreground/background interleaving, cross-volume isolation,
// options validation, QuickStats bookkeeping, and a concurrent multi-tenant
// stress test verified against per-trace ground truth (run under
// ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "fsim/multi_tenant.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;

namespace {

bsvc::ServiceOptions service_options(const bs::TempDir& dir,
                                     std::size_t shards) {
  bsvc::ServiceOptions o;
  o.shards = shards;
  o.root = dir.path();
  o.db_options.expected_ops_per_cp = 2000;
  o.sync_writes = false;
  return o;
}

bc::BackrefKey key(bc::BlockNo b, bc::InodeNo ino = 2) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = ino;
  k.length = 1;
  return k;
}

bsvc::UpdateOp add(bc::BlockNo b) {
  return {bsvc::UpdateOp::Kind::kAdd, key(b)};
}

/// A set-comparable projection of a BackrefKey.
using KeyTuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t>;
KeyTuple tup(const bc::BackrefKey& k) {
  return {k.block, k.inode, k.offset, k.length, k.line};
}

}  // namespace

TEST(Service, TenantRoutingIsDeterministicAndStable) {
  bs::TempDir dir;
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("tenant-" + std::to_string(i));

  std::vector<std::size_t> first;
  {
    bsvc::VolumeManager vm(service_options(dir, 4));
    for (const auto& n : names) first.push_back(vm.shard_of(n));
    // Every shard hosts someone (the hash spreads 64 tenants over 4 shards).
    std::set<std::size_t> used(first.begin(), first.end());
    EXPECT_EQ(used.size(), 4u);
  }
  {
    // A fresh service instance (fresh process in real life) routes each
    // tenant identically — volumes re-open on their old shard.
    bsvc::VolumeManager vm(service_options(dir, 4));
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(vm.shard_of(names[i]), first[i]) << names[i];
    }
  }
}

TEST(Service, OptionsValidation) {
  bs::TempDir dir;

  // Core: constructing a BacklogDb with degenerate options must throw
  // rather than divide by zero downstream.
  bs::Env env(dir.path());
  {
    bc::BacklogOptions o;
    o.partition_blocks = 0;
    EXPECT_THROW(bc::BacklogDb db(env, o), std::invalid_argument);
  }
  {
    bc::BacklogOptions o;
    o.max_extent_blocks = 0;
    EXPECT_THROW(bc::BacklogDb db(env, o), std::invalid_argument);
  }
  {
    bc::BacklogOptions o;
    o.expected_ops_per_cp = 0;
    EXPECT_THROW(bc::BacklogDb db(env, o), std::invalid_argument);
  }

  // Service: zero shards, empty root and a cacheless hosted volume are
  // configuration errors.
  {
    bsvc::ServiceOptions o = service_options(dir, 0);
    EXPECT_THROW(bsvc::VolumeManager vm(o), std::invalid_argument);
  }
  {
    bsvc::ServiceOptions o = service_options(dir, 2);
    o.root.clear();
    EXPECT_THROW(bsvc::VolumeManager vm(o), std::invalid_argument);
  }
  {
    // With the shared block cache on (the default), the deprecated
    // per-volume cache_pages knob is ignored — 0 is fine...
    bsvc::ServiceOptions o = service_options(dir, 2);
    o.db_options.cache_pages = 0;
    bsvc::VolumeManager vm(o);
  }
  {
    // ...but opting out of the shared cache makes a cacheless hosted
    // volume a configuration error again.
    bsvc::ServiceOptions o = service_options(dir, 2);
    o.cache.enable_block_cache = false;
    o.db_options.cache_pages = 0;
    EXPECT_THROW(bsvc::VolumeManager vm(o), std::invalid_argument);
  }

  // Tenant names become directory names; reject traversal and duplicates.
  bs::TempDir dir2;
  bsvc::VolumeManager vm(service_options(dir2, 2));
  EXPECT_THROW(vm.open_volume(""), std::invalid_argument);
  EXPECT_THROW(vm.open_volume("../escape"), std::invalid_argument);
  EXPECT_THROW(vm.open_volume("a/b"), std::invalid_argument);
  vm.open_volume("alice");
  EXPECT_THROW(vm.open_volume("alice"), std::invalid_argument);
  EXPECT_THROW(vm.query("nobody", 1).get(), std::invalid_argument);
}

TEST(Service, VolumeLifecycleAndReopen) {
  bs::TempDir dir;
  {
    bsvc::VolumeManager vm(service_options(dir, 2));
    vm.open_volume("alice");
    vm.apply("alice", {add(100), add(200)}).get();
    vm.consistency_point("alice").get();
    vm.apply("alice", {add(300)}).get();
    // close_volume commits the still-buffered add(300).
    vm.close_volume("alice");
    EXPECT_FALSE(vm.has_volume("alice"));
  }
  {
    bsvc::VolumeManager vm(service_options(dir, 2));
    vm.open_volume("alice");
    EXPECT_EQ(vm.query("alice", 300).get().size(), 1u);
    EXPECT_EQ(vm.query("alice", 100).get().size(), 1u);
  }
}

TEST(Service, DiscoverVolumesHostsDottedNamesButNotCloneStaging) {
  bs::TempDir dir;
  {
    bsvc::VolumeManager vm(service_options(dir, 2));
    vm.open_volume("vol.1");  // open_volume accepts dotted names
    vm.apply("vol.1", {add(7)}).get();
    vm.close_volume("vol.1");
  }
  // A crashed clone's staging directory, and one no tenant could name.
  std::filesystem::create_directories(dir.path() / "x.cloning");
  std::filesystem::create_directories(dir.path() / "not a tenant");

  bsvc::VolumeManager vm(service_options(dir, 2));
  const auto found = bsvc::discover_volumes(vm);
  EXPECT_EQ(found, std::vector<std::string>{"vol.1"});
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "x.cloning"));
  for (const auto& t : found) vm.open_volume(t);
  EXPECT_EQ(vm.query("vol.1", 7).get().size(), 1u);
}

TEST(Service, QueryWhileMaintenanceOnOneShard) {
  bs::TempDir dir;
  bsvc::ServiceOptions opts = service_options(dir, 1);  // force interleaving
  bsvc::VolumeManager vm(opts);
  vm.open_volume("alice");
  vm.open_volume("bob");

  // Pile up Level-0 runs on alice: 12 CP windows of updates.
  bc::BlockNo next = 1;
  for (int cp = 0; cp < 12; ++cp) {
    std::vector<bsvc::UpdateOp> batch;
    for (int i = 0; i < 200; ++i) batch.push_back(add(next++));
    vm.apply("alice", std::move(batch)).get();
    vm.consistency_point("alice").get();
  }
  ASSERT_GE(vm.quick_stats("alice").get().l0_runs(), 12u);

  // Hold the shard on a gate task so the probe stays queued while we check
  // the one-probe-in-flight rule, then flood the shard with foreground
  // queries for both tenants plus updates for bob.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = vm.with_db("alice", [released](bc::BacklogDb&) { released.wait(); });

  bsvc::MaintenancePolicy policy;
  policy.l0_run_threshold = 4;
  ASSERT_TRUE(vm.schedule_maintenance("alice", policy));
  EXPECT_FALSE(vm.schedule_maintenance("alice", policy));  // one in flight

  std::vector<std::future<std::vector<bc::BackrefEntry>>> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back(vm.query("alice", 1 + static_cast<bc::BlockNo>(i * 7)));
    queries.push_back(vm.query("bob", 999));  // bob is empty: 0 results, no error
  }
  auto bob_apply = vm.apply("bob", {add(999)});
  release.set_value();
  blocker.get();
  bob_apply.get();

  for (std::size_t i = 0; i < queries.size(); i += 2) {
    EXPECT_EQ(queries[i].get().size(), 1u);
  }

  // The background probe eventually runs and compacts alice down to the
  // single post-maintenance From run holding the live records.
  for (int spin = 0; spin < 100; ++spin) {
    if (vm.stats().tenants.at("alice").maintenance_runs > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto stats = vm.stats();
  EXPECT_EQ(stats.tenants.at("alice").maintenance_runs, 1u);
  EXPECT_LE(vm.quick_stats("alice").get().l0_runs(), 1u);
  // Maintenance must not have disturbed visibility.
  EXPECT_EQ(vm.query("alice", 1).get().size(), 1u);
}

TEST(Service, MaintenanceSkipsMidCpWindow) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 1));
  vm.open_volume("alice");
  vm.apply("alice", {add(1), add(2)}).get();  // write store non-empty

  bsvc::MaintenancePolicy policy;
  policy.l0_run_threshold = 0;  // always over threshold
  ASSERT_TRUE(vm.schedule_maintenance("alice", policy));
  // Wait for the probe to drain (it skips, it must not throw).
  for (int spin = 0; spin < 100; ++spin) {
    if (vm.stats().tenants.at("alice").maintenance_skipped > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto stats = vm.stats();
  EXPECT_EQ(stats.tenants.at("alice").maintenance_runs, 0u);
  EXPECT_EQ(stats.tenants.at("alice").maintenance_skipped, 1u);
  // Buffered updates are intact.
  EXPECT_EQ(vm.query("alice", 1).get().size(), 1u);
}

TEST(Service, IoStatsIsolationAcrossVolumes) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 1));  // same shard, distinct Envs
  vm.open_volume("heavy");
  vm.open_volume("light");

  vm.apply("light", {add(1)}).get();
  vm.consistency_point("light").get();
  const bs::IoStats light_before = vm.io_stats("light").get();

  // Hammer the heavy tenant on the same shard.
  bc::BlockNo next = 1;
  for (int cp = 0; cp < 8; ++cp) {
    std::vector<bsvc::UpdateOp> batch;
    for (int i = 0; i < 500; ++i) batch.push_back(add(next++));
    vm.apply("heavy", std::move(batch)).get();
    vm.consistency_point("heavy").get();
  }
  vm.maintain("heavy").get();

  const bs::IoStats light_after = vm.io_stats("light").get();
  const bs::IoStats heavy = vm.io_stats("heavy").get();
  // The heavy tenant's I/O lands exclusively on its own Env.
  EXPECT_EQ(light_after.page_writes, light_before.page_writes);
  EXPECT_EQ(light_after.page_reads, light_before.page_reads);
  EXPECT_GT(heavy.page_writes, light_after.page_writes * 4);
}

TEST(Service, QuickStatsMatchesFullWalk) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 1));
  vm.open_volume("alice");

  auto check = [&](const char* when) {
    vm.with_db("alice",
               [&](bc::BacklogDb& db) {
                 const bc::DbStats full = db.stats();
                 const bc::QuickStats quick = db.quick_stats();
                 EXPECT_EQ(quick.from_runs, full.from_runs) << when;
                 EXPECT_EQ(quick.to_runs, full.to_runs) << when;
                 EXPECT_EQ(quick.combined_runs, full.combined_runs) << when;
                 EXPECT_EQ(quick.db_bytes, full.db_bytes) << when;
                 EXPECT_EQ(quick.run_records, full.run_records) << when;
                 EXPECT_EQ(quick.ws_entries, full.ws_from + full.ws_to) << when;
               })
        .get();
  };

  bc::BlockNo next = 1;
  for (int cp = 0; cp < 6; ++cp) {
    std::vector<bsvc::UpdateOp> batch;
    for (int i = 0; i < 300; ++i) batch.push_back(add(next++));
    // Remove a few of this window's adds so To runs appear as well.
    for (int i = 0; i < 50; ++i) {
      batch.push_back({bsvc::UpdateOp::Kind::kRemove,
                       key(next - 1 - static_cast<bc::BlockNo>(i))});
    }
    vm.apply("alice", std::move(batch)).get();
    check("mid-window");
    vm.consistency_point("alice").get();
    check("after cp");
  }
  vm.maintain("alice").get();
  check("after maintenance");
  vm.relocate("alice", 10, 5, 1'000'000).get();
  check("after relocate");
  vm.consistency_point("alice").get();
  check("after relocate cp");

  // Counters also survive recovery (rebuilt from the manifest).
  vm.close_volume("alice");
  vm.open_volume("alice");
  check("after reopen");
}

TEST(Service, StatsSnapshotsShardsSequentially) {
  // Regression: stats() used to submit one snapshot task to every shard at
  // once, so every shard served the aggregation at the same moment (a
  // coordinated fleet-wide blip) and a slow shard was sampled *before* the
  // aggregate's own wait on earlier shards finished. Now shard k's snapshot
  // is only submitted once shard k-1's completed. Deterministic probe: gate
  // shard 0, start stats(), complete updates on shard 1 while shard 0 is
  // blocked — the aggregate must include them, because shard 1 may only be
  // snapshotted after shard 0 drains.
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  // Find tenant names that land on shard 0 and shard 1.
  std::string t0, t1;
  for (int i = 0; (t0.empty() || t1.empty()) && i < 64; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    (vm.shard_of(name) == 0 ? t0 : t1) = name;
  }
  ASSERT_FALSE(t0.empty());
  ASSERT_FALSE(t1.empty());
  vm.open_volume(t0);
  vm.open_volume(t1);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = vm.with_db(t0, [released](bc::BacklogDb&) { released.wait(); });

  std::thread stats_thread;
  bsvc::ServiceStats observed;
  stats_thread = std::thread([&] { observed = vm.stats(); });

  // Shard 1 keeps serving while shard 0 is gated; these 3 updates complete
  // strictly before the gate opens.
  vm.apply(t1, {add(1), add(2), add(3)}).get();

  release.set_value();
  blocker.get();
  stats_thread.join();
  EXPECT_EQ(observed.tenants.at(t1).updates, 3u);
  EXPECT_EQ(observed.tenants.at(t0).updates, 0u);
}

TEST(Service, ConcurrentMultiTenantStressWithVerify) {
  constexpr std::size_t kTenants = 8;
  bs::TempDir dir;
  bsvc::ServiceOptions opts = service_options(dir, 2);
  bsvc::VolumeManager vm(opts);

  bsvc::MaintenancePolicy policy;
  policy.l0_run_threshold = 8;
  policy.budget_per_sweep = 2;
  policy.poll_interval = std::chrono::milliseconds(5);
  bsvc::MaintenanceScheduler scheduler(vm, policy);

  std::vector<bf::TenantWorkload> workloads;
  for (std::size_t i = 0; i < kTenants; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    vm.open_volume(name);
    bf::TenantTraceOptions to;
    to.block_ops = 3000 + 500 * i;  // skewed load
    to.remove_fraction = 0.4;
    to.seed = 1000 + i;
    workloads.push_back({name, bf::synthesize_tenant_trace(to)});
  }

  bf::ReplayOptions ro;
  ro.batch_ops = 128;
  ro.ops_per_cp = 500;
  ro.query_every_ops = 100;
  const auto results = bf::replay_concurrently(vm, workloads, ro);
  scheduler.stop();

  ASSERT_EQ(results.size(), kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(results[i].ops, workloads[i].trace.ops.size());
    EXPECT_GT(results[i].cps, 0u);
    EXPECT_GT(results[i].queries, 0u);
    // Every interleaved query targeted a live reference.
    EXPECT_EQ(results[i].empty_query_results, 0u) << results[i].tenant;
  }

  // Scan/verify: each volume's incomplete (live) records must be exactly
  // the trace's ground truth, regardless of how background maintenance
  // interleaved with the replay.
  for (const auto& wl : workloads) {
    std::set<KeyTuple> expect;
    for (const auto& k : wl.trace.live_keys) expect.insert(tup(k));
    std::set<KeyTuple> got;
    vm.with_db(wl.tenant,
               [&](bc::BacklogDb& db) {
                 for (const auto& rec : db.scan_all()) {
                   if (rec.to == bc::kInfinity) got.insert(tup(rec.key));
                 }
               })
        .get();
    EXPECT_EQ(got, expect) << wl.tenant;
  }

  const auto stats = vm.stats();
  EXPECT_EQ(stats.tenants.size(), kTenants);
  std::uint64_t total_updates = 0;
  for (const auto& [name, ts] : stats.tenants) total_updates += ts.updates;
  EXPECT_EQ(total_updates, stats.total.updates);
  EXPECT_GT(stats.total.queries, 0u);
  EXPECT_GT(stats.total.query_micros.count(), 0u);
}
