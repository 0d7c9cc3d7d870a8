// google-benchmark microbenchmarks of the individual mechanisms: write-store
// updates (the paper's §6.2 finding is that >95% of Backlog's overhead is
// CPU time spent updating the WS), Bloom filter probes, run-file writes,
// join throughput, k-way merges, maintenance, B+-tree updates, and
// end-to-end point queries.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/backlog_db.hpp"
#include "core/join.hpp"
#include "core/write_store.hpp"
#include "lsm/merge.hpp"
#include "lsm/run_file.hpp"
#include "storage/btree.hpp"
#include "storage/env.hpp"
#include "util/bloom.hpp"
#include "util/random.hpp"
#include "util/serde.hpp"

using namespace backlog;

namespace {

core::BackrefKey make_key(std::uint64_t b, std::uint64_t ino = 2,
                          std::uint64_t off = 0) {
  core::BackrefKey k;
  k.block = b;
  k.inode = ino;
  k.offset = off;
  k.length = 1;
  k.line = 0;
  return k;
}

void BM_WriteStoreAdd(benchmark::State& state) {
  core::WriteStore ws;
  std::uint64_t b = 0;
  for (auto _ : state) {
    ws.add_reference(make_key(b++), 1);
    if (ws.from_size() > 100000) {
      state.PauseTiming();
      ws.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteStoreAdd);

void BM_WriteStorePrunedChurn(benchmark::State& state) {
  // add+remove of the same key in one CP: the §5.1 annihilation fast path.
  core::WriteStore ws;
  std::uint64_t b = 0;
  for (auto _ : state) {
    ws.add_reference(make_key(b), 1);
    ws.remove_reference(make_key(b), 1);
    ++b;
  }
  if (ws.from_size() != 0 || ws.to_size() != 0) state.SkipWithError("leak");
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_WriteStorePrunedChurn);

void BM_BloomInsertProbe(benchmark::State& state) {
  util::BloomFilter f = util::BloomFilter::sized_for(32000);
  std::uint64_t k = 0;
  for (auto _ : state) {
    f.insert(k);
    benchmark::DoNotOptimize(f.may_contain(k ^ 1));
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsertProbe);

void BM_RunWriterThroughput(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  std::uint64_t file_no = 0;
  const std::size_t n = 50000;
  std::vector<std::uint8_t> rec(core::kFromRecordSize);
  for (auto _ : state) {
    lsm::RunWriter w(env, "bm_" + std::to_string(file_no++) + ".run",
                     core::kFromRecordSize, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      core::encode_from({make_key(i), 1}, rec.data());
      w.add(rec, i);
    }
    w.finish();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * core::kFromRecordSize);
}
BENCHMARK(BM_RunWriterThroughput)->Unit(benchmark::kMillisecond);

void BM_JoinGroup(benchmark::State& state) {
  // The per-group pairing as OuterJoinStream runs it, into reused scratch.
  const std::vector<core::Epoch> froms = {1, 10, 20, 30, 40};
  const std::vector<core::Epoch> tos = {5, 15, 25, 35};
  std::vector<std::pair<core::Epoch, core::Epoch>> out;
  for (auto _ : state) {
    core::join_epochs(froms, tos, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinGroup);

void BM_MergeStream(benchmark::State& state) {
  // k-way merge of run-file streams (warm cache), as compaction and queries
  // drive it: 64k From records dealt round-robin over `inputs` runs.
  const std::size_t inputs = static_cast<std::size_t>(state.range(0));
  const std::uint64_t n = 65536;
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  storage::BlockCache cache(64ull << 20, /*shards=*/1);
  std::vector<std::unique_ptr<lsm::RunFile>> runs;
  std::uint8_t rec[core::kFromRecordSize];
  for (std::size_t r = 0; r < inputs; ++r) {
    const std::string name = "m" + std::to_string(r) + ".run";
    lsm::RunWriter w(env, name, core::kFromRecordSize, n / inputs);
    for (std::uint64_t i = r; i < n; i += inputs) {
      core::encode_from({make_key(i / 4, 2, i % 4), 1}, rec);
      w.add({rec, sizeof(rec)}, i / 4);
    }
    w.finish();
    runs.push_back(std::make_unique<lsm::RunFile>(env, name, cache));
  }
  for (auto _ : state) {
    std::vector<std::unique_ptr<lsm::RecordStream>> streams;
    for (const auto& run : runs) streams.push_back(run->scan());
    lsm::MergeStream merged(std::move(streams), core::kFromRecordSize);
    std::uint64_t sum = 0;
    for (; merged.valid(); merged.next()) sum += merged.record()[7];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeStream)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Maintain(benchmark::State& state) {
  // One maintenance pass over a fixed aged volume: a Combined RS from an
  // earlier pass plus 24 CPs of Level-0 From/To runs, with snapshots that
  // keep part of the history alive. Every iteration restores the volume
  // from a template copy (untimed); items are input records.
  storage::TempDir dir;
  const std::filesystem::path tmpl = dir.path() / "template";
  {
    storage::Env env(tmpl);
    env.set_sync(false);
    core::BacklogDb db(env);
    util::Rng rng(7);
    std::vector<core::BackrefKey> live;
    for (int cp = 1; cp <= 48; ++cp) {
      for (int op = 0; op < 2000; ++op) {
        if (live.empty() || rng.chance(0.6)) {
          live.push_back(make_key(rng.below(50000), 2 + rng.below(64),
                                  rng.below(1024)));
          db.add_reference(live.back());
        } else {
          const std::size_t i = rng.below(live.size());
          db.remove_reference(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
      }
      db.consistency_point();
      if (cp % 8 == 0) db.registry().take_snapshot(0);
      if (cp == 24) db.maintain();
    }
  }
  std::uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::filesystem::path vol = dir.path() / "vol";
    std::filesystem::remove_all(vol);
    std::filesystem::copy(tmpl, vol, std::filesystem::copy_options::recursive);
    {
      storage::Env env(vol);
      env.set_sync(false);
      core::BacklogDb db(env);
      state.ResumeTiming();
      records += db.maintain().input_records;
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_Maintain)->Unit(benchmark::kMillisecond);

void BM_BTreePut(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  storage::BTree tree(env, "bm.btree", 8, 8, 4096);
  util::Rng rng(1);
  std::uint8_t kbuf[8], vbuf[8];
  for (auto _ : state) {
    util::put_be64(kbuf, rng.next());
    util::put_u64(vbuf, 1);
    tree.put({kbuf, 8}, {vbuf, 8});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePut);

void BM_BacklogUpdatePath(benchmark::State& state) {
  // The headline number: cost of one add_reference on the live system,
  // including its amortized share of CP flushes every 32000/16 ops.
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  core::BacklogDb db(env);
  std::uint64_t b = 0, since_cp = 0;
  for (auto _ : state) {
    const std::uint64_t i = b++;
    db.add_reference(make_key(i % 100000, 2 + i % 7, i % 64));
    if (++since_cp == 2000) {
      db.consistency_point();
      since_cp = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BacklogUpdatePath)->MinTime(1.0);

void BM_BacklogPointQuery(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  core::BacklogDb db(env);
  for (int cp = 0; cp < 20; ++cp) {
    for (std::uint64_t i = 0; i < 2000; ++i)
      db.add_reference(make_key((cp * 2000 + i) % 20000, 2, i));
    db.consistency_point();
  }
  db.maintain();
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query(rng.below(20000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BacklogPointQuery);

void BM_BacklogRangeQuery(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  core::BacklogDb db(env);
  for (int cp = 0; cp < 20; ++cp) {
    for (std::uint64_t i = 0; i < 2000; ++i)
      db.add_reference(make_key((cp * 2000 + i) % 20000, 2, i));
    db.consistency_point();
  }
  db.maintain();
  const std::uint64_t run = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query(rng.below(20000 - run), run));
  }
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_BacklogRangeQuery)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
