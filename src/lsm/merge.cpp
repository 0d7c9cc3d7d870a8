#include "lsm/merge.hpp"

#include <cstring>
#include <utility>

namespace backlog::lsm {

MergeStream::MergeStream(std::vector<std::unique_ptr<RecordStream>> inputs,
                         std::size_t record_size)
    : inputs_(std::move(inputs)), record_size_(record_size) {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i] != nullptr && inputs_[i]->valid())
      heap_.push_back({inputs_[i]->record().data(), i});
  }
  for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
  find_runner_up();
}

bool MergeStream::less(const Head& a, const Head& b) const {
  const int c = std::memcmp(a.rec, b.rec, record_size_);
  if (c != 0) return c < 0;
  return a.input < b.input;
}

void MergeStream::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Head moving = heap_[i];
  while (true) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    std::size_t child = l;
    if (l + 1 < n && less(heap_[l + 1], heap_[l])) child = l + 1;
    if (!less(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

void MergeStream::find_runner_up() {
  const std::size_t n = heap_.size();
  if (n < 2) {
    runner_up_ = 0;
  } else {
    runner_up_ = n > 2 && less(heap_[2], heap_[1]) ? 2 : 1;
  }
}

void MergeStream::next() {
  Head& top = heap_.front();
  RecordStream& in = *inputs_[top.input];
  in.next();
  if (in.valid()) {
    top.rec = in.record().data();
    if (runner_up_ == 0 || less(top, heap_[runner_up_])) return;
    // The runner-up is the new minimum: it takes the root and the advanced
    // head sinks from the runner-up's old slot.
    std::swap(top, heap_[runner_up_]);
    sift_down(runner_up_);
  } else {
    top = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    sift_down(0);
  }
  find_runner_up();
}

DedupStream::DedupStream(std::unique_ptr<RecordStream> in, std::size_t record_size)
    : in_(std::move(in)), record_size_(record_size), prev_(record_size) {}

void DedupStream::next() {
  std::memcpy(prev_.data(), in_->record().data(), record_size_);
  in_->next();
  while (in_->valid() &&
         std::memcmp(prev_.data(), in_->record().data(), record_size_) == 0) {
    in_->next();
  }
}

}  // namespace backlog::lsm
