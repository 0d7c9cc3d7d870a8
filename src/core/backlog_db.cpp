#include "core/backlog_db.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <deque>
#include <set>
#include <stdexcept>

#include "core/file_manifest.hpp"
#include "core/join.hpp"
#include "util/clock.hpp"
#include "util/crc32c.hpp"
#include "util/serde.hpp"

namespace backlog::core {

using util::now_micros;

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
constexpr char kDvFromName[] = "dv_from.bin";
constexpr char kDvToName[] = "dv_to.bin";
constexpr char kDvCombinedName[] = "dv_combined.bin";
constexpr std::uint64_t kManifestMagic = 0x424b4c4f474d4651ULL;
constexpr std::uint64_t kManifestEditMagic = 0x424b4c4f47454454ULL;

std::size_t record_size_of(std::uint8_t table) {
  switch (table) {
    case 0: return kFromRecordSize;
    case 1: return kToRecordSize;
    case 2: return kCombinedRecordSize;
    default: throw std::logic_error("bad table id");
  }
}

/// Limits a run stream to records with block < block_hi and keeps the run
/// file handle alive for the stream's lifetime. The inner record is read and
/// the bound tested once per advance; valid() and record() return the
/// cached result (the RecordStream lifetime contract keeps it current).
class BoundedStream final : public lsm::RecordStream {
 public:
  BoundedStream(std::shared_ptr<lsm::RunFile> run,
                std::unique_ptr<lsm::RecordStream> in, BlockNo block_hi)
      : run_(std::move(run)), in_(std::move(in)), block_hi_(block_hi) {
    load_head();
  }

  [[nodiscard]] bool valid() const override { return valid_; }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return rec_;
  }
  void next() override {
    in_->next();
    load_head();
  }

 private:
  void load_head() {
    valid_ = in_->valid();
    if (!valid_) return;
    rec_ = in_->record();
    valid_ = util::get_be64(rec_.data()) < block_hi_;
  }

  std::shared_ptr<lsm::RunFile> run_;
  std::unique_ptr<lsm::RecordStream> in_;
  BlockNo block_hi_;
  std::span<const std::uint8_t> rec_;
  bool valid_ = false;
};

}  // namespace

BacklogDb::BacklogDb(storage::Env& env, BacklogOptions options)
    : env_(env),
      options_(options),
      ws_(options.pruning),
      private_cache_(options.shared_cache != nullptr
                         ? nullptr
                         : std::make_unique<storage::BlockCache>(
                               static_cast<std::uint64_t>(options.cache_pages) *
                                   storage::kPageSize,
                               /*shards=*/1)),
      cache_(options.shared_cache != nullptr ? *options.shared_cache
                                             : *private_cache_),
      result_cache_(options.result_cache_entries) {
  if (options_.partition_blocks == 0)
    throw std::invalid_argument("BacklogOptions: partition_blocks must be > 0");
  if (options_.max_extent_blocks == 0)
    throw std::invalid_argument(
        "BacklogOptions: max_extent_blocks must be > 0 (every reference "
        "covers at least one block)");
  if (options_.expected_ops_per_cp == 0)
    throw std::invalid_argument(
        "BacklogOptions: expected_ops_per_cp must be > 0 (it sizes the "
        "per-run Bloom filters)");
  if (options_.file_tag.size() > 32)
    throw std::invalid_argument(
        "BacklogOptions: file_tag must be <= 32 chars — run names embed it "
        "verbatim, and a truncated tag could collide across volumes");
  for (const char c : options_.file_tag) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok)
      throw std::invalid_argument(
          "BacklogOptions: file_tag must be [A-Za-z0-9._-] (it names files)");
  }
  // Note: cache_pages == 0 (with no shared cache) is a documented value
  // (disable the page cache, used by the cold-cache experiments); the
  // service layer doesn't hit this path — hosted volumes read through the
  // injected service-wide cache.
  //
  // Attach whichever cache this db reads through to the Env so deleting a
  // run's last link invalidates its cached pages before the inode can be
  // recycled. Never override a cache the service already attached.
  if (env_.block_cache() == nullptr) env_.set_block_cache(&cache_);
  if (env_.file_exists(kManifestName)) {
    load_manifest();
    remove_orphan_runs();
  }
  // Establish the manifest base so per-CP writes can be O(1) edit appends.
  save_manifest();
}

BacklogDb::~BacklogDb() {
  // The private cache dies with the db; the Env may outlive it (tests
  // reopen a db over the same Env), so drop the dangling attachment. A
  // service-injected shared cache outlives both — leave it.
  if (private_cache_ != nullptr && env_.block_cache() == private_cache_.get())
    env_.set_block_cache(nullptr);
}

void BacklogDb::add_reference(const BackrefKey& key) {
  if (key.length == 0)
    throw std::invalid_argument("add_reference: zero-length extent");
  if (key.length > options_.max_extent_blocks)
    throw std::invalid_argument("add_reference: extent exceeds max_extent_blocks");
  max_extent_seen_ = std::max(max_extent_seen_, key.length);
  ws_.add_reference(key, registry_.current_cp());
  ++ops_since_cp_;
  ++mutations_;
}

void BacklogDb::apply_many(std::span<const Update> ops) {
  // Validate the whole batch before touching the write store: a bad op
  // applies nothing (the batch is one unit; see the header contract).
  std::uint64_t max_len = 0;
  for (const Update& op : ops) {
    if (op.key.length == 0)
      throw std::invalid_argument("apply_many: zero-length extent");
    if (op.key.length > options_.max_extent_blocks)
      throw std::invalid_argument(
          "apply_many: extent exceeds max_extent_blocks");
    max_len = std::max(max_len, op.key.length);
  }
  max_extent_seen_ = std::max(max_extent_seen_, max_len);
  ws_.apply_many(ops, registry_.current_cp());
  ops_since_cp_ += ops.size();
  ++mutations_;
}

void BacklogDb::remove_reference(const BackrefKey& key) {
  if (key.length == 0)
    throw std::invalid_argument("remove_reference: zero-length extent");
  if (key.length > options_.max_extent_blocks)
    throw std::invalid_argument(
        "remove_reference: extent exceeds max_extent_blocks");
  max_extent_seen_ = std::max(max_extent_seen_, key.length);
  ws_.remove_reference(key, registry_.current_cp());
  ++ops_since_cp_;
  ++mutations_;
}

std::string BacklogDb::new_run_name(Table table, std::uint64_t partition) {
  const char prefix = table == Table::kFrom     ? 'f'
                      : table == Table::kTo     ? 't'
                                                : 'c';
  char buf[64];
  if (options_.file_tag.empty()) {
    std::snprintf(buf, sizeof buf, "%c_%06llu_%08llu.run", prefix,
                  static_cast<unsigned long long>(partition),
                  static_cast<unsigned long long>(next_run_id_++));
  } else {
    // The tag makes the name unique across every volume sharing a
    // FileManifest: a cloned volume inherits its source's runs (and the
    // source's next_run_id_), so without the tag both could mint the same
    // name and a later flush would truncate a file the other still reads.
    std::snprintf(buf, sizeof buf, "%c_%.32s_%06llu_%08llu.run", prefix,
                  options_.file_tag.c_str(),
                  static_cast<unsigned long long>(partition),
                  static_cast<unsigned long long>(next_run_id_++));
  }
  return buf;
}

std::uint64_t BacklogDb::flush_table(const std::vector<std::uint8_t>& sorted,
                                     std::size_t record_size, Table table) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size() / record_size;
  std::uint64_t records = 0;
  std::size_t i = 0;
  while (i < n) {
    // Records are globally sorted block-first, so each partition's records
    // form one contiguous span (§5.3: one WS, split into partitions at CP).
    const BlockNo block = util::get_be64(sorted.data() + i * record_size);
    const std::uint64_t partition = partition_of(block);
    const BlockNo part_end = (partition + 1) * options_.partition_blocks;
    const std::string name = new_run_name(table, partition);
    lsm::RunWriter writer(env_, name, record_size,
                          std::min<std::size_t>(n, options_.expected_ops_per_cp),
                          options_.bloom_max_bytes);
    while (i < n) {
      const std::uint8_t* rec = sorted.data() + i * record_size;
      const BlockNo b = util::get_be64(rec);
      if (b >= part_end) break;
      writer.add({rec, record_size}, b);
      ++i;
      ++records;
    }
    writer.finish();

    auto meta = std::make_shared<RunMeta>();
    meta->name = name;
    meta->table = table;
    meta->partition = partition;
    meta->record_count = writer.record_count();
    meta->size_bytes = writer.file_size();
    meta->bloom = writer.bloom();
    meta->min_rec = writer.first_record();
    meta->max_rec = writer.last_record();
    track_run_added(*meta);
    Partition& part = partitions_[partition];
    (table == Table::kFrom   ? part.from_runs
     : table == Table::kTo   ? part.to_runs
                             : part.combined_runs)
        .push_back(meta);
    pending_manifest_runs_.push_back(std::move(meta));
  }
  return records;
}

CpFlushStats BacklogDb::consistency_point() {
  const std::uint64_t t0 = now_micros();
  const storage::IoStats before = env_.stats();

  CpFlushStats s;
  s.cp = registry_.current_cp();
  s.block_ops = ops_since_cp_;
  s.records_flushed = ws_.from_size() + ws_.to_size();

  flush_table(ws_.encode_from_sorted(), kFromRecordSize, Table::kFrom);
  flush_table(ws_.encode_to_sorted(), kToRecordSize, Table::kTo);
  ws_.clear();
  if (options_.checkpoint) options_.checkpoint("cp_flushed");

  // The CP is committed by the manifest write (the "root node written last"
  // rule of write-anywhere systems, §2) — so the registry advances first and
  // the manifest records the post-CP state.
  registry_.advance_cp();
  persist_registry();
  if (options_.checkpoint) options_.checkpoint("registry_persisted");
  ops_since_cp_ = 0;
  ++mutations_;

  const storage::IoStats delta = env_.stats() - before;
  s.pages_written = delta.page_writes;
  s.wall_micros = now_micros() - t0;
  return s;
}

void BacklogDb::persist_registry() {
  // Same write order as a CP commit: deletion vectors first, then the
  // manifest edit that references any runs created since the last write —
  // a crash in between leaves the previous edit authoritative.
  if (dv_dirty_) {
    dv_from_.save(env_, kDvFromName);
    dv_to_.save(env_, kDvToName);
    dv_combined_.save(env_, kDvCombinedName);
    dv_dirty_ = false;
  }
  append_manifest_edit();
}

std::vector<std::string> BacklogDb::live_files() const {
  std::vector<std::string> out;
  out.push_back(kManifestName);
  for (const char* dv : {kDvFromName, kDvToName, kDvCombinedName}) {
    if (env_.file_exists(dv)) out.push_back(dv);
  }
  for (const auto& [pid, part] : partitions_) {
    for (const auto& m : part.from_runs) out.push_back(m->name);
    for (const auto& m : part.to_runs) out.push_back(m->name);
    for (const auto& m : part.combined_runs) out.push_back(m->name);
  }
  return out;
}

std::shared_ptr<BacklogDb::RunMeta> BacklogDb::load_run_meta(
    const std::string& name, Table table, std::uint64_t partition) {
  lsm::RunFile rf(env_, name, cache_);
  auto meta = std::make_shared<RunMeta>();
  meta->name = name;
  meta->table = table;
  meta->partition = partition;
  meta->record_count = rf.record_count();
  meta->size_bytes = rf.size_bytes();
  meta->bloom = rf.bloom();
  if (auto mn = rf.min_record()) meta->min_rec = *mn;
  if (auto mx = rf.max_record()) meta->max_rec = *mx;
  return meta;
}

std::shared_ptr<lsm::RunFile> BacklogDb::open_run(const RunMeta& meta) {
  if (auto it = open_runs_.find(meta.name); it != open_runs_.end()) {
    // Refresh LRU position.
    open_lru_.remove(meta.name);
    open_lru_.push_front(meta.name);
    return it->second;
  }
  auto rf = std::make_shared<lsm::RunFile>(env_, meta.name, cache_);
  open_runs_.emplace(meta.name, rf);
  open_lru_.push_front(meta.name);
  while (open_runs_.size() > options_.max_open_runs) {
    const std::string victim = open_lru_.back();
    open_lru_.pop_back();
    open_runs_.erase(victim);
  }
  return rf;
}

void BacklogDb::drop_run(const RunMeta& meta) {
  track_run_removed(meta);
  if (auto it = open_runs_.find(meta.name); it != open_runs_.end()) {
    open_lru_.remove(meta.name);
    open_runs_.erase(it);
  }
  // Deleting this directory's entry is always safe: a run shared with a
  // cloned volume is a hard link, so sharers keep the inode alive. The
  // manifest release keeps the logical refcount in step — at refcount zero
  // the unlink above *was* the physical removal.
  env_.delete_file(meta.name);
  if (options_.shared_files != nullptr) options_.shared_files->release(meta.name);
}

void BacklogDb::track_run_added(const RunMeta& meta) noexcept {
  switch (meta.table) {
    case Table::kFrom: ++quick_.from_runs; break;
    case Table::kTo: ++quick_.to_runs; break;
    case Table::kCombined: ++quick_.combined_runs; break;
  }
  quick_.db_bytes += meta.size_bytes;
  quick_.run_records += meta.record_count;
}

void BacklogDb::track_run_removed(const RunMeta& meta) noexcept {
  switch (meta.table) {
    case Table::kFrom: --quick_.from_runs; break;
    case Table::kTo: --quick_.to_runs; break;
    case Table::kCombined: --quick_.combined_runs; break;
  }
  quick_.db_bytes -= meta.size_bytes;
  quick_.run_records -= meta.record_count;
}

bool BacklogDb::run_may_intersect(const RunMeta& meta, BlockNo block_lo,
                                  BlockNo block_hi) const {
  if (meta.record_count == 0) return false;
  const BlockNo min_block = util::get_be64(meta.min_rec.data());
  const BlockNo max_block = util::get_be64(meta.max_rec.data());
  if (max_block < block_lo || min_block >= block_hi) return false;
  if (options_.use_bloom && block_hi - block_lo <= options_.bloom_probe_limit) {
    for (BlockNo b = block_lo; b < block_hi; ++b) {
      if (meta.bloom.may_contain(b)) return true;
    }
    return false;
  }
  return true;
}

std::unique_ptr<lsm::RecordStream> BacklogDb::table_stream(
    const Partition& part, Table table, BlockNo block_lo, BlockNo block_hi,
    bool include_ws, RunRead read) {
  const auto& runs = table == Table::kFrom   ? part.from_runs
                     : table == Table::kTo   ? part.to_runs
                                             : part.combined_runs;
  const std::size_t record_size = record_size_of(static_cast<std::uint8_t>(table));

  std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
  std::uint8_t prefix[8];
  util::put_be64(prefix, block_lo);
  for (const auto& meta : runs) {
    if (!run_may_intersect(*meta, block_lo, block_hi)) continue;
    std::shared_ptr<lsm::RunFile> rf = open_run(*meta);
    std::unique_ptr<lsm::RecordStream> stream;
    if (read == RunRead::kCached) {
      stream = rf->seek({prefix, 8});
    } else {
      // Runs never straddle partitions, so a partition-wide read starts at
      // record 0 and needs no index descent through the cache.
      const BlockNo min_block = util::get_be64(meta->min_rec.data());
      stream = rf->sequential_from(
          min_block >= block_lo ? 0 : rf->lower_bound({prefix, 8}));
    }
    inputs.push_back(std::make_unique<BoundedStream>(std::move(rf),
                                                     std::move(stream), block_hi));
  }
  if (include_ws) {
    if (table == Table::kFrom) {
      auto buf = ws_.encode_from_range(block_lo, block_hi);
      if (!buf.empty())
        inputs.push_back(
            std::make_unique<lsm::VectorStream>(std::move(buf), record_size));
    } else if (table == Table::kTo) {
      auto buf = ws_.encode_to_range(block_lo, block_hi);
      if (!buf.empty())
        inputs.push_back(
            std::make_unique<lsm::VectorStream>(std::move(buf), record_size));
    }
  }
  auto merged = std::make_unique<lsm::MergeStream>(std::move(inputs), record_size);
  const lsm::DeletionVector& vec = dv(table);
  if (vec.empty()) return merged;
  return std::make_unique<lsm::FilteredStream>(std::move(merged), vec);
}

std::vector<CombinedRecord> BacklogDb::collect_raw(BlockNo block_lo,
                                                   BlockNo block_hi) {
  static const Partition kEmptyPartition;
  std::vector<CombinedRecord> out;
  // Records sort by *starting* block; an extent starting before block_lo can
  // still cover it, so begin scanning max_extent_seen_-1 blocks early and
  // filter to records whose range intersects [block_lo, block_hi).
  const std::uint64_t overscan = max_extent_seen_ - 1;
  const BlockNo scan_lo = block_lo > overscan ? block_lo - overscan : 0;
  const std::uint64_t first_part = partition_of(scan_lo);
  const std::uint64_t last_part = partition_of(block_hi - 1);
  for (std::uint64_t pid = first_part;; ++pid) {
    auto it = partitions_.find(pid);
    const Partition& part =
        it != partitions_.end() ? it->second : kEmptyPartition;

    auto join = std::make_unique<OuterJoinStream>(
        table_stream(part, Table::kFrom, scan_lo, block_hi, true,
                     RunRead::kCached),
        table_stream(part, Table::kTo, scan_lo, block_hi, true,
                     RunRead::kCached));
    std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
    inputs.push_back(std::move(join));
    inputs.push_back(table_stream(part, Table::kCombined, scan_lo, block_hi,
                                  false, RunRead::kCached));
    lsm::MergeStream merged(std::move(inputs), kCombinedRecordSize);
    while (merged.valid()) {
      CombinedRecord rec = decode_combined(merged.record().data());
      if (rec.key.block + rec.key.length > block_lo) out.push_back(rec);
      merged.next();
    }
    if (pid == last_part) break;
  }
  return out;
}

void BacklogDb::expand_inheritance(std::vector<CombinedRecord>& records) const {
  // Records whose from == 0 override inheritance for their (key, line).
  std::set<BackrefKey> overrides;
  std::set<CombinedRecord> seen(records.begin(), records.end());
  for (const CombinedRecord& r : records) {
    if (r.is_override()) overrides.insert(r.key);
  }
  std::deque<CombinedRecord> work(records.begin(), records.end());
  while (!work.empty()) {
    const CombinedRecord r = work.front();
    work.pop_front();
    for (const CloneEdge& edge : registry_.clones_of(r.key.line)) {
      // The clone branched from snapshot (line, v); it inherits this record
      // iff the record was visible at v and no override exists in the clone.
      if (!(r.from <= edge.branch_version && edge.branch_version < r.to))
        continue;
      BackrefKey key2 = r.key;
      key2.line = edge.child;
      if (overrides.contains(key2)) continue;
      const CombinedRecord synth{key2, 0, kInfinity};
      if (seen.insert(synth).second) {
        overrides.insert(key2);
        work.push_back(synth);
      }
    }
  }
  records.assign(seen.begin(), seen.end());
}

std::vector<BackrefEntry> BacklogDb::query(BlockNo first, std::uint64_t count,
                                           const QueryOptions& opts) {
  if (count == 0) return {};
  // Result-cache fast path: the tag pairs this db's mutation counter with
  // the registry version, so any update/CP/maintenance/registry change
  // since the entry was stored makes the tags differ and the entry dies on
  // comparison. Queries read the write store too (table_stream with
  // include_ws), which is why plain CP-epoch tagging would be wrong — every
  // buffered update must invalidate, not only flushes.
  const ResultCache<std::vector<BackrefEntry>>::Key key{
      first, count, opts.expand, opts.mask};
  const ResultCache<std::vector<BackrefEntry>>::Tag tag{mutations_,
                                                        registry_.version()};
  if (const auto* cached = result_cache_.get(key, tag)) return *cached;

  std::vector<CombinedRecord> raw = collect_raw(first, first + count);
  if (opts.expand) expand_inheritance(raw);
  std::vector<BackrefEntry> out;
  out.reserve(raw.size());
  for (const CombinedRecord& r : raw) {
    BackrefEntry e;
    e.rec = r;
    e.versions = registry_.valid_versions_in(r.key.line, r.from, r.to);
    if (opts.mask && e.versions.empty()) continue;
    out.push_back(std::move(e));
  }
  result_cache_.put(key, tag, out);
  return out;
}

std::vector<CombinedRecord> BacklogDb::query_raw(BlockNo first,
                                                 std::uint64_t count) {
  if (count == 0) return {};
  return collect_raw(first, first + count);
}

std::vector<CombinedRecord> BacklogDb::scan_all() {
  std::vector<CombinedRecord> out;
  // WS entries may exist for partitions with no runs yet; collect_raw
  // handles that, so scan the full block space partition by partition.
  std::set<std::uint64_t> pids;
  for (const auto& [pid, part] : partitions_) pids.insert(pid);
  for (const FromRecord& r : ws_.from_entries()) pids.insert(partition_of(r.key.block));
  for (const ToRecord& r : ws_.to_entries()) pids.insert(partition_of(r.key.block));
  for (const std::uint64_t pid : pids) {
    const BlockNo lo = pid * options_.partition_blocks;
    const BlockNo hi = lo + options_.partition_blocks;
    std::vector<CombinedRecord> chunk = collect_raw(lo, hi);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

void BacklogDb::clear_cache() {
  cache_.clear();
  result_cache_.clear();
}

void BacklogDb::merge_run_batches(std::vector<std::shared_ptr<RunMeta>>& runs,
                                  Table table, std::uint64_t partition) {
  const std::size_t batch = std::max<std::size_t>(options_.max_open_runs, 2);
  const std::size_t record_size = record_size_of(static_cast<std::uint8_t>(table));
  // Each pass merges disjoint chunks of `batch` runs into one run apiece
  // (level k -> level k+1); a handful of passes suffices for any backlog,
  // and each record is rewritten only O(log_batch(runs)) times.
  while (runs.size() > batch) {
    std::vector<std::shared_ptr<RunMeta>> next_level;
    for (std::size_t chunk = 0; chunk < runs.size(); chunk += batch) {
      const std::size_t chunk_end = std::min(runs.size(), chunk + batch);
      if (chunk_end - chunk == 1) {
        next_level.push_back(runs[chunk]);
        continue;
      }
      std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
      std::uint64_t total_records = 0;
      for (std::size_t i = chunk; i < chunk_end; ++i) {
        std::shared_ptr<lsm::RunFile> rf = open_run(*runs[i]);
        inputs.push_back(std::make_unique<BoundedStream>(
            rf, rf->sequential_from(0), UINT64_MAX));
        total_records += runs[i]->record_count;
      }
      lsm::MergeStream merged(std::move(inputs), record_size);
      const std::string name = new_run_name(table, partition);
      lsm::RunWriter writer(env_, name, record_size,
                            std::max<std::size_t>(total_records, 1),
                            table == Table::kCombined
                                ? options_.combined_bloom_max_bytes
                                : options_.bloom_max_bytes);
      while (merged.valid()) {
        writer.add(merged.record(), util::get_be64(merged.record().data()));
        merged.next();
      }
      writer.finish();
      for (std::size_t i = chunk; i < chunk_end; ++i) drop_run(*runs[i]);

      auto meta = std::make_shared<RunMeta>();
      meta->name = name;
      meta->table = table;
      meta->partition = partition;
      meta->record_count = writer.record_count();
      meta->size_bytes = writer.file_size();
      meta->bloom = writer.bloom();
      meta->min_rec = writer.first_record();
      meta->max_rec = writer.last_record();
      track_run_added(*meta);
      next_level.push_back(std::move(meta));
    }
    runs = std::move(next_level);
  }
}

MaintenanceStats BacklogDb::maintain() {
  if (!ws_.empty())
    throw std::logic_error(
        "BacklogDb::maintain: write store not empty; call consistency_point() "
        "first");
  const std::uint64_t t0 = now_micros();
  const storage::IoStats before = env_.stats();
  MaintenanceStats s;

  // Zombies whose descendants are gone can finally be purged (§4.2.2).
  registry_.collect_zombies();

  for (auto& [pid, part] : partitions_) maintain_one(pid, part, s);

  if (dv_dirty_) {
    dv_from_.save(env_, kDvFromName);
    dv_to_.save(env_, kDvToName);
    dv_combined_.save(env_, kDvCombinedName);
    dv_dirty_ = false;
  }
  save_manifest();
  // One FILEREFS flush per compaction pass, not per retired shared run.
  if (options_.shared_files != nullptr) options_.shared_files->persist_if_dirty();

  const storage::IoStats delta = env_.stats() - before;
  s.pages_read = delta.page_reads;
  s.pages_written = delta.page_writes;
  s.wall_micros = now_micros() - t0;
  ++mutations_;  // purging changes unmasked (query_raw-visible) results
  return s;
}

MaintenanceStats BacklogDb::maintain_partition(BlockNo block) {
  if (!ws_.empty())
    throw std::logic_error(
        "BacklogDb::maintain_partition: write store not empty; call "
        "consistency_point() first");
  const std::uint64_t t0 = now_micros();
  const storage::IoStats before = env_.stats();
  MaintenanceStats s;
  registry_.collect_zombies();
  const std::uint64_t pid = partition_of(block);
  if (auto it = partitions_.find(pid); it != partitions_.end()) {
    maintain_one(pid, it->second, s);
  }
  if (dv_dirty_) {
    dv_from_.save(env_, kDvFromName);
    dv_to_.save(env_, kDvToName);
    dv_combined_.save(env_, kDvCombinedName);
    dv_dirty_ = false;
  }
  save_manifest();
  if (options_.shared_files != nullptr) options_.shared_files->persist_if_dirty();
  const storage::IoStats delta = env_.stats() - before;
  s.pages_read = delta.page_reads;
  s.pages_written = delta.page_writes;
  s.wall_micros = now_micros() - t0;
  ++mutations_;
  return s;
}

void BacklogDb::maintain_one(std::uint64_t pid, Partition& part,
                             MaintenanceStats& s) {
  const BlockNo block_lo = pid * options_.partition_blocks;
  const BlockNo block_hi = block_lo + options_.partition_blocks;

  {
    for (const auto& m : part.from_runs) {
      s.input_records += m->record_count;
      s.bytes_before += m->size_bytes;
    }
    for (const auto& m : part.to_runs) {
      s.input_records += m->record_count;
      s.bytes_before += m->size_bytes;
    }
    for (const auto& m : part.combined_runs) {
      s.input_records += m->record_count;
      s.bytes_before += m->size_bytes;
    }
    if (part.from_runs.empty() && part.to_runs.empty() &&
        part.combined_runs.empty()) {
      return;
    }

    // Pre-merge oversized Level-0 populations into intermediate runs so the
    // final pass never holds more than max_open_runs files open (the
    // Stepped-Merge levels of §5.1).
    merge_run_batches(part.from_runs, Table::kFrom, pid);
    merge_run_batches(part.to_runs, Table::kTo, pid);
    merge_run_batches(part.combined_runs, Table::kCombined, pid);

    // Join all From runs against all To runs, then merge with the previous
    // Combined RS (Fig. 4's query plan).
    auto join = std::make_unique<OuterJoinStream>(
        table_stream(part, Table::kFrom, block_lo, block_hi, false,
                     RunRead::kSequential),
        table_stream(part, Table::kTo, block_lo, block_hi, false,
                     RunRead::kSequential));
    std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
    inputs.push_back(std::move(join));
    inputs.push_back(table_stream(part, Table::kCombined, block_lo, block_hi,
                                  false, RunRead::kSequential));
    lsm::MergeStream merged(std::move(inputs), kCombinedRecordSize);

    const std::string combined_name = new_run_name(Table::kCombined, pid);
    const std::string from_name = new_run_name(Table::kFrom, pid);
    std::size_t total_guess = 0;
    for (const auto& m : part.combined_runs) total_guess += m->record_count;
    for (const auto& m : part.from_runs) total_guess += m->record_count;
    lsm::RunWriter combined_writer(env_, combined_name, kCombinedRecordSize,
                                   std::max<std::size_t>(total_guess, 1),
                                   options_.combined_bloom_max_bytes);
    lsm::RunWriter from_writer(env_, from_name, kFromRecordSize,
                               std::max<std::size_t>(total_guess, 1),
                               options_.bloom_max_bytes);

    while (merged.valid()) {
      // The fields the purge rule needs are read in place; surviving
      // records go to the writers as the merged bytes themselves.
      const std::span<const std::uint8_t> rec = merged.record();
      const BlockNo block = util::get_be64(rec.data());
      const LineId line = util::get_be64(rec.data() + kLineOffset);
      const Epoch from = util::get_be64(rec.data() + kKeySize);
      const Epoch to = util::get_be64(rec.data() + kKeySize + 8);
      // Purge rule (§5.2): a record is dead when no retained version, zombie
      // or clone branch point falls inside its interval. Structural-
      // inheritance override records (from == 0) are the exception — they
      // gate expansion for their line, so they must survive until the line
      // itself is forgotten, even if no retained version observes them.
      const bool alive = from == 0 ? registry_.line_exists(line)
                                   : registry_.interval_protected(line, from, to);
      if (!alive) {
        ++s.purged;
      } else if (to == kInfinity) {
        // Incomplete records live in the new From RS (§5.2); a From record
        // is the Combined record's (key, from) prefix.
        from_writer.add(rec.first(kFromRecordSize), block);
        ++s.output_incomplete;
      } else {
        combined_writer.add(rec, block);
        ++s.output_complete;
      }
      merged.next();
    }
    combined_writer.finish();
    from_writer.finish();

    // Retire the old runs and install the new generation.
    for (const auto& m : part.from_runs) drop_run(*m);
    for (const auto& m : part.to_runs) drop_run(*m);
    for (const auto& m : part.combined_runs) drop_run(*m);
    part.from_runs.clear();
    part.to_runs.clear();
    part.combined_runs.clear();

    auto install = [&](const std::string& name, Table table,
                       lsm::RunWriter& writer,
                       std::vector<std::shared_ptr<RunMeta>>& dest) {
      if (writer.record_count() == 0) {
        env_.delete_file(name);
        return;
      }
      auto meta = std::make_shared<RunMeta>();
      meta->name = name;
      meta->table = table;
      meta->partition = pid;
      meta->record_count = writer.record_count();
      meta->size_bytes = writer.file_size();
      meta->bloom = writer.bloom();
      meta->min_rec = writer.first_record();
      meta->max_rec = writer.last_record();
      s.bytes_after += meta->size_bytes;
      track_run_added(*meta);
      dest.push_back(std::move(meta));
    };
    install(combined_name, Table::kCombined, combined_writer, part.combined_runs);
    install(from_name, Table::kFrom, from_writer, part.from_runs);

    // The deletion-vector entries for this block range were consumed by the
    // filtered input streams; the new runs no longer contain them.
    if (dv_from_.erase_block_range(block_lo, block_hi) +
            dv_to_.erase_block_range(block_lo, block_hi) +
            dv_combined_.erase_block_range(block_lo, block_hi) >
        0) {
      dv_dirty_ = true;
    }
  }
}

std::uint64_t BacklogDb::relocate(BlockNo old_block, std::uint64_t length,
                                  BlockNo new_block) {
  if (length == 0) return 0;
  const BlockNo block_hi = old_block + length;
  std::uint64_t moved = 0;

  // 1. Write-store entries: re-key in place.
  moved += ws_.rekey_block_range(old_block, block_hi, new_block);

  // 2. Read-store records: suppress through the deletion vectors and
  //    re-emit re-keyed copies as fresh Level-0 runs. The record bytes
  //    (epochs included) are otherwise preserved, so join results and
  //    version masks are unchanged.
  const std::uint64_t first_part = partition_of(old_block);
  const std::uint64_t last_part = partition_of(block_hi - 1);
  std::vector<std::uint8_t> new_from, new_to, new_combined;
  for (std::uint64_t pid = first_part; pid <= last_part; ++pid) {
    auto it = partitions_.find(pid);
    if (it == partitions_.end()) continue;
    Partition& part = it->second;

    auto rewrite = [&](Table table, std::vector<std::uint8_t>& out,
                       lsm::DeletionVector& vec, std::size_t rec_size) {
      auto stream = table_stream(part, table, old_block, block_hi, false,
                                 RunRead::kCached);
      while (stream->valid()) {
        const std::span<const std::uint8_t> rec = stream->record();
        vec.insert(rec);
        const std::size_t n = out.size();
        out.insert(out.end(), rec.begin(), rec.end());
        const BlockNo b = util::get_be64(out.data() + n);
        util::put_be64(out.data() + n, b - old_block + new_block);
        ++moved;
        stream->next();
        (void)rec_size;
      }
    };
    rewrite(Table::kFrom, new_from, dv_from_, kFromRecordSize);
    rewrite(Table::kTo, new_to, dv_to_, kToRecordSize);
    rewrite(Table::kCombined, new_combined, dv_combined_, kCombinedRecordSize);
  }

  auto sort_records = [](std::vector<std::uint8_t>& buf, std::size_t rec_size) {
    const std::size_t n = buf.size() / rec_size;
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::memcmp(buf.data() + a * rec_size, buf.data() + b * rec_size,
                         rec_size) < 0;
    });
    std::vector<std::uint8_t> sorted(buf.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(sorted.data() + i * rec_size, buf.data() + order[i] * rec_size,
                  rec_size);
    }
    buf = std::move(sorted);
  };
  if (!new_from.empty()) {
    sort_records(new_from, kFromRecordSize);
    flush_table(new_from, kFromRecordSize, Table::kFrom);
  }
  if (!new_to.empty()) {
    sort_records(new_to, kToRecordSize);
    flush_table(new_to, kToRecordSize, Table::kTo);
  }
  if (!new_combined.empty()) {
    sort_records(new_combined, kCombinedRecordSize);
    flush_table(new_combined, kCombinedRecordSize, Table::kCombined);
  }
  if (moved > 0) dv_dirty_ = true;
  ++mutations_;
  return moved;
}

DbStats BacklogDb::stats() const {
  DbStats s;
  for (const auto& [pid, part] : partitions_) {
    s.from_runs += part.from_runs.size();
    s.to_runs += part.to_runs.size();
    s.combined_runs += part.combined_runs.size();
    for (const auto& m : part.from_runs) {
      s.db_bytes += m->size_bytes;
      s.run_records += m->record_count;
    }
    for (const auto& m : part.to_runs) {
      s.db_bytes += m->size_bytes;
      s.run_records += m->record_count;
    }
    for (const auto& m : part.combined_runs) {
      s.db_bytes += m->size_bytes;
      s.run_records += m->record_count;
    }
  }
  s.ws_from = ws_.from_size();
  s.ws_to = ws_.to_size();
  s.dv_entries = dv_from_.size() + dv_to_.size() + dv_combined_.size();
  s.partitions = partitions_.size();
  return s;
}

FileOwnershipStats BacklogDb::file_ownership() const {
  FileOwnershipStats s;
  const auto classify = [&](const std::shared_ptr<RunMeta>& m) {
    ++s.total_files;
    if (options_.shared_files != nullptr &&
        options_.shared_files->is_shared(m->name)) {
      ++s.shared_files;
      s.shared_bytes += m->size_bytes;
    } else {
      s.owned_bytes += m->size_bytes;
    }
  };
  for (const auto& [pid, part] : partitions_) {
    for (const auto& m : part.from_runs) classify(m);
    for (const auto& m : part.to_runs) classify(m);
    for (const auto& m : part.combined_runs) classify(m);
  }
  // Metadata files are copied into clones, never linked: always owned.
  for (const char* name :
       {kManifestName, kDvFromName, kDvToName, kDvCombinedName}) {
    if (env_.file_exists(name)) {
      ++s.total_files;
      s.owned_bytes += env_.file_size(name);
    }
  }
  return s;
}

QuickStats BacklogDb::quick_stats() const noexcept {
  QuickStats q = quick_;
  q.ws_entries = ws_.from_size() + ws_.to_size();
  q.ops_since_cp = ops_since_cp_;
  return q;
}

lsm::DeletionVector& BacklogDb::dv(Table table) {
  switch (table) {
    case Table::kFrom: return dv_from_;
    case Table::kTo: return dv_to_;
    case Table::kCombined: return dv_combined_;
  }
  throw std::logic_error("bad table");
}

const lsm::DeletionVector& BacklogDb::dv(Table table) const {
  return const_cast<BacklogDb*>(this)->dv(table);
}

namespace {
void emit_run_entry(std::vector<std::uint8_t>& out, std::uint8_t table,
                    std::uint64_t partition, const std::string& name) {
  out.push_back(table);
  util::append_u64(out, partition);
  util::append_string(out, name);
}
}  // namespace

void BacklogDb::save_manifest() {
  std::vector<std::uint8_t> out;
  util::append_u64(out, kManifestMagic);
  util::append_u64(out, next_run_id_);
  util::append_u64(out, max_extent_seen_);
  registry_.serialize(out);
  std::uint64_t run_count = 0;
  for (const auto& [pid, part] : partitions_) {
    run_count +=
        part.from_runs.size() + part.to_runs.size() + part.combined_runs.size();
  }
  util::append_u64(out, run_count);
  for (const auto& [pid, part] : partitions_) {
    auto emit = [&](const std::vector<std::shared_ptr<RunMeta>>& runs) {
      for (const auto& m : runs) {
        emit_run_entry(out, static_cast<std::uint8_t>(m->table), m->partition,
                       m->name);
      }
    };
    emit(part.from_runs);
    emit(part.to_runs);
    emit(part.combined_runs);
  }
  manifest_log_.reset();  // release the old file before replacing it
  auto file = env_.create_file(kManifestTmpName);
  file->append(out);
  file->sync();
  file->close();
  env_.rename_file(kManifestTmpName, kManifestName);
  pending_manifest_runs_.clear();
  manifest_log_ = env_.append_file(kManifestName);
}

void BacklogDb::append_manifest_edit() {
  // One small record per CP: [magic][len][payload][crc]. The payload
  // carries the new registry state (it embeds the advanced CP number) and
  // the runs created since the last manifest write.
  std::vector<std::uint8_t> payload;
  util::append_u64(payload, next_run_id_);
  util::append_u64(payload, max_extent_seen_);
  registry_.serialize(payload);
  util::append_u64(payload, pending_manifest_runs_.size());
  for (const auto& m : pending_manifest_runs_) {
    emit_run_entry(payload, static_cast<std::uint8_t>(m->table), m->partition,
                   m->name);
  }
  std::vector<std::uint8_t> record;
  util::append_u64(record, kManifestEditMagic);
  util::append_u32(record, static_cast<std::uint32_t>(payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  util::append_u32(record, util::crc32c(payload.data(), payload.size()));
  if (manifest_log_ == nullptr) manifest_log_ = env_.append_file(kManifestName);
  manifest_log_->append(record);
  manifest_log_->sync();
  pending_manifest_runs_.clear();
}

void BacklogDb::load_manifest() {
  auto file = env_.open_file(kManifestName);
  std::vector<std::uint8_t> buf(file->size());
  file->read(0, buf);
  std::size_t pos = 0;
  auto need = [&](std::size_t n) {
    if (pos + n > buf.size()) throw std::runtime_error("manifest: truncated");
  };
  auto read_u64 = [&]() {
    need(8);
    const std::uint64_t v = util::get_u64(buf.data() + pos);
    pos += 8;
    return v;
  };
  auto read_runs = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      need(1);
      const auto table = static_cast<Table>(buf[pos++]);
      const std::uint64_t partition = read_u64();
      need(4);
      const std::uint32_t name_len = util::get_u32(buf.data() + pos);
      pos += 4;
      need(name_len);
      const std::string name(reinterpret_cast<const char*>(buf.data() + pos),
                             name_len);
      pos += name_len;
      auto meta = load_run_meta(name, table, partition);
      track_run_added(*meta);
      Partition& part = partitions_[partition];
      (table == Table::kFrom   ? part.from_runs
       : table == Table::kTo   ? part.to_runs
                               : part.combined_runs)
          .push_back(std::move(meta));
    }
  };

  // Base section.
  if (read_u64() != kManifestMagic)
    throw std::runtime_error("manifest: bad magic");
  next_run_id_ = read_u64();
  max_extent_seen_ = read_u64();
  std::size_t consumed = 0;
  registry_ = SnapshotRegistry::deserialize({buf.data() + pos, buf.size() - pos},
                                            &consumed);
  pos += consumed;
  read_runs(read_u64());

  // Edit log: replay until the end or the first torn/corrupt record (a torn
  // tail means the CP that wrote it never committed — drop it).
  while (pos + 12 <= buf.size()) {
    if (util::get_u64(buf.data() + pos) != kManifestEditMagic) break;
    const std::uint32_t len = util::get_u32(buf.data() + pos + 8);
    if (pos + 12 + len + 4 > buf.size()) break;  // torn record
    const std::uint8_t* payload = buf.data() + pos + 12;
    const std::uint32_t want = util::get_u32(payload + len);
    if (util::crc32c(payload, len) != want) break;  // corrupt record
    pos += 12 + len + 4;
    // Apply the edit.
    std::size_t epos = 0;
    next_run_id_ = util::get_u64(payload + epos);
    epos += 8;
    max_extent_seen_ = util::get_u64(payload + epos);
    epos += 8;
    std::size_t reg_consumed = 0;
    registry_ = SnapshotRegistry::deserialize({payload + epos, len - epos},
                                              &reg_consumed);
    epos += reg_consumed;
    const std::uint64_t added = util::get_u64(payload + epos);
    epos += 8;
    // Reuse read_runs by temporarily pointing pos at the payload: simpler to
    // parse inline here.
    for (std::uint64_t i = 0; i < added; ++i) {
      const auto table = static_cast<Table>(payload[epos++]);
      const std::uint64_t partition = util::get_u64(payload + epos);
      epos += 8;
      const std::uint32_t name_len = util::get_u32(payload + epos);
      epos += 4;
      const std::string name(reinterpret_cast<const char*>(payload + epos),
                             name_len);
      epos += name_len;
      auto meta = load_run_meta(name, table, partition);
      track_run_added(*meta);
      Partition& part = partitions_[partition];
      (table == Table::kFrom   ? part.from_runs
       : table == Table::kTo   ? part.to_runs
                               : part.combined_runs)
          .push_back(std::move(meta));
    }
  }

  dv_from_.load(env_, kDvFromName);
  dv_to_.load(env_, kDvToName);
  dv_combined_.load(env_, kDvCombinedName);
}

void BacklogDb::remove_orphan_runs() {
  // Run files not referenced by the recovered manifest belong to a CP that
  // never committed; write-anywhere recovery discards them.
  std::set<std::string> referenced;
  for (const auto& [pid, part] : partitions_) {
    for (const auto& m : part.from_runs) referenced.insert(m->name);
    for (const auto& m : part.to_runs) referenced.insert(m->name);
    for (const auto& m : part.combined_runs) referenced.insert(m->name);
  }
  for (const std::string& name : env_.list_files()) {
    if (name.size() > 4 && name.ends_with(".run") && !referenced.contains(name)) {
      env_.delete_file(name);
      if (options_.shared_files != nullptr) options_.shared_files->release(name);
    }
  }
  if (options_.shared_files != nullptr) options_.shared_files->persist_if_dirty();
}

}  // namespace backlog::core
