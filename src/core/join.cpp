#include "core/join.hpp"

#include <algorithm>
#include <cstring>

namespace backlog::core {

void join_epochs(std::span<const Epoch> froms, std::span<const Epoch> tos,
                 std::vector<std::pair<Epoch, Epoch>>& out) {
  out.clear();
  std::size_t ti = 0;
  for (const Epoch f : froms) {
    // To entries strictly before this From can no longer match it, nor any
    // later From (froms ascend) — they are structural-inheritance overrides
    // that join the implicit from = 0.
    while (ti < tos.size() && tos[ti] < f) {
      out.emplace_back(0, tos[ti]);
      ++ti;
    }
    if (ti < tos.size() && tos[ti] == f) {
      // from == to: the reference was created and destroyed within one CP
      // (only possible when WS pruning is disabled) — no consistency point
      // can observe it, so both sides annihilate (§4.2, pruning rule).
      ++ti;
      continue;
    }
    if (ti < tos.size()) {
      out.emplace_back(f, tos[ti]);
      ++ti;
    } else {
      out.emplace_back(f, kInfinity);  // incomplete (live) record
    }
  }
  for (; ti < tos.size(); ++ti) out.emplace_back(0, tos[ti]);
  std::sort(out.begin(), out.end());
}

std::vector<CombinedRecord> join_group(const BackrefKey& key,
                                       const std::vector<Epoch>& froms,
                                       const std::vector<Epoch>& tos) {
  std::vector<std::pair<Epoch, Epoch>> intervals;
  join_epochs(froms, tos, intervals);
  std::vector<CombinedRecord> out;
  out.reserve(intervals.size());
  for (const auto& [from, to] : intervals) out.push_back({key, from, to});
  return out;
}

OuterJoinStream::OuterJoinStream(std::unique_ptr<lsm::RecordStream> from_in,
                                 std::unique_ptr<lsm::RecordStream> to_in)
    : from_(std::move(from_in)), to_(std::move(to_in)) {
  refill();
}

bool OuterJoinStream::valid() const { return pos_ < group_out_.size(); }

std::span<const std::uint8_t> OuterJoinStream::record() const {
  return {group_out_.data() + pos_, kCombinedRecordSize};
}

void OuterJoinStream::next() {
  pos_ += kCombinedRecordSize;
  if (pos_ >= group_out_.size()) refill();
}

void OuterJoinStream::refill() {
  group_out_.clear();
  pos_ = 0;
  const std::uint8_t* from_rec =
      from_ != nullptr && from_->valid() ? from_->record().data() : nullptr;
  const std::uint8_t* to_rec =
      to_ != nullptr && to_->valid() ? to_->record().data() : nullptr;
  // A group whose entries all annihilate (from == to) yields nothing; keep
  // going, or the stream would end before its inputs do.
  while (group_out_.empty() && (from_rec != nullptr || to_rec != nullptr)) {
    // The next group is the smaller of the two heads' 40-byte key prefixes,
    // copied out because the head it came from is about to advance.
    std::uint8_t group_key[kKeySize];
    const std::uint8_t* smaller =
        from_rec == nullptr ? to_rec
        : to_rec == nullptr ? from_rec
        : std::memcmp(from_rec, to_rec, kKeySize) <= 0 ? from_rec
                                                       : to_rec;
    std::memcpy(group_key, smaller, kKeySize);

    // Each head is read once per step. Run-file streams deliver epochs
    // ascending within a key group (epoch is the record suffix), and merged
    // streams preserve that.
    froms_.clear();
    while (from_rec != nullptr &&
           std::memcmp(from_rec, group_key, kKeySize) == 0) {
      froms_.push_back(util::get_be64(from_rec + kKeySize));
      from_->next();
      from_rec = from_->valid() ? from_->record().data() : nullptr;
    }
    tos_.clear();
    while (to_rec != nullptr && std::memcmp(to_rec, group_key, kKeySize) == 0) {
      tos_.push_back(util::get_be64(to_rec + kKeySize));
      to_->next();
      to_rec = to_->valid() ? to_->record().data() : nullptr;
    }

    join_epochs(froms_, tos_, joined_);
    group_out_.resize(joined_.size() * kCombinedRecordSize);
    std::uint8_t* out = group_out_.data();
    for (const auto& [from, to] : joined_) {
      std::memcpy(out, group_key, kKeySize);
      util::put_be64(out + kKeySize, from);
      util::put_be64(out + kKeySize + 8, to);
      out += kCombinedRecordSize;
    }
  }
}

}  // namespace backlog::core
