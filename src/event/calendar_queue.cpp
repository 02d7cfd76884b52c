#include "event/calendar_queue.h"

#include <algorithm>

#include "common/expect.h"

namespace cfds {

void CalendarQueue::grow() {
  chunks_.push_back(std::make_unique<Block[]>(kChunkBlocks));
  Block* chunk = chunks_.back().get();
  for (std::size_t i = 0; i < kChunkBlocks; ++i) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
}

void CalendarQueue::reserve(std::size_t pending) {
  const std::size_t blocks = (pending + kBlockEntries - 1) / kBlockEntries;
  while (chunks_.size() * kChunkBlocks < blocks) grow();
}

void CalendarQueue::insert(const EventEntry& entry, SimTime now) {
  CFDS_EXPECT(entry.when >= now, "calendar insert in the past");
  CFDS_EXPECT(entry.when - now <= horizon(),
              "calendar insert beyond the bounded horizon (route far events "
              "to the overflow heap; see docs/PERF.md)");
  ++size_;
  if (entry.when < active_end_) {
    if (entry.when < active_end_ - SimTime::micros(kBucketWidthUs)) {
      // A peek ran ahead to a far bucket while the near future was idle.
      // Hand the window back, so that near inserts (a round's burst, say)
      // land in their own buckets instead of in one window-wide sort.
      for (const EventEntry& held : active_) append(held);
      active_.clear();
      active_end_ = now;
      append(entry);
      return;
    }
    // Splicing near the back keeps active_ sorted for a small memmove;
    // deeper positions take the O(1) unsorted push and one deferred sort,
    // which costs less than the memmove would.
    if (active_sorted_) {
      const auto pos =
          std::upper_bound(active_.begin(), active_.end(), entry, FiresLater{});
      if (active_.end() - pos <= 64) {
        active_.insert(pos, entry);
        return;
      }
      active_sorted_ = false;
    }
    active_.push_back(entry);
    return;
  }
  append(entry);
}

void CalendarQueue::append(const EventEntry& entry) {
  if (heads_.empty()) {
    heads_.resize(kNumBuckets, nullptr);
    occupied_.resize(kNumBuckets / 64, 0);
  }
  const std::size_t idx = bucket_index(entry.when);
  Block* head = heads_[idx];
  if (head == nullptr || head->count == kBlockEntries) {
    if (free_ == nullptr) grow();
    Block* block = free_;
    free_ = block->next;
    block->next = head;
    block->count = 0;
    heads_[idx] = head = block;
    occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }
  head->entries[head->count++] = entry;
}

void CalendarQueue::activate(SimTime now) {
  // Bucket-resident entries lie within one lap of `start` (see the header),
  // so the first set bit at or after it, wrapping once, is the earliest.
  const SimTime start = std::max(now, active_end_);
  const std::size_t first = bucket_index(start);
  const std::size_t words = occupied_.size();
  std::size_t word = first / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (first % 64));
  for (std::size_t scanned = 0; bits == 0; ++scanned) {
    CFDS_EXPECT(scanned < words, "calendar queue occupancy bitmap out of sync");
    word = (word + 1) % words;
    bits = occupied_[word];
  }
  const std::size_t idx = word * 64 + std::size_t(__builtin_ctzll(bits));
  occupied_[word] &= ~(std::uint64_t{1} << (idx % 64));

  for (Block* block = heads_[idx]; block != nullptr;) {
    active_.insert(active_.end(), block->entries,
                   block->entries + block->count);
    Block* next = block->next;
    block->next = free_;
    free_ = block;
    block = next;
  }
  heads_[idx] = nullptr;
  std::sort(active_.begin(), active_.end(), FiresLater{});
  active_sorted_ = true;

  const std::size_t lap_offset = (idx - first) & (kNumBuckets - 1);
  const std::int64_t start_bucket = start.as_micros() / kBucketWidthUs;
  active_end_ = SimTime::micros(
      (start_bucket + std::int64_t(lap_offset) + 1) * kBucketWidthUs);
}

const EventEntry* CalendarQueue::peek(SimTime now) {
  if (size_ == 0) return nullptr;
  if (active_.empty()) {
    activate(now);
  } else if (!active_sorted_) {
    std::sort(active_.begin(), active_.end(), FiresLater{});
    active_sorted_ = true;
  }
  return &active_.back();
}

EventEntry CalendarQueue::pop_min(SimTime now) {
  CFDS_EXPECT(size_ > 0, "pop_min on an empty calendar queue");
  const EventEntry entry = *peek(now);
  active_.pop_back();
  --size_;
  CFDS_EXPECT(entry.when >= now, "calendar queue fired an event in the past");
  return entry;
}

}  // namespace cfds
