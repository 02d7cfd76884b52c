// Bounded-horizon calendar (bucket) queue for the event kernel.
//
// The simulator's workload is dominated by radio deliveries, and every
// channel delay is bounded by the one-hop bound Thop (protocol timers by a
// few multiples of the heartbeat interval phi). A calendar queue exploits
// that bound: events land in fixed-width time buckets, so an insert touches
// one bucket instead of sifting through a binary heap of every pending
// event, and a pop touches the earliest non-empty bucket.
//
// Ordering contract: pops come out in ascending (time, sequence) order —
// exactly the order the binary-heap kernel produces — so switching the
// queue implementation cannot change a single event firing.
//
// Storage: a bucket is an unsorted chain of fixed-size blocks of 24-byte
// entries (the callable lives in the simulator's timer slab), all blocks
// from one shared free list, so queue memory follows the peak pending count
// wherever a burst sits on the wheel, and a steady state that recycles
// blocks allocates nothing. Every entry that fires before `active_end_`,
// the end of the last activated bucket's window, lives instead in one
// `active_` vector, sorted latest-first and drained from the back. When it
// runs dry, the earliest occupied bucket is activated: its blocks are
// copied into `active_`, handed back to the free list, and `active_` is
// sorted once. Buckets partition events by time, so activating them in time
// order yields the global (time, sequence) order. An insert within the
// activated window (a sub-bucket-width delay) splices into place near the
// back of `active_`, or marks it for re-sorting when the splice point is
// deep; an insert before that window hands the window back to its bucket.
//
// Horizon invariant: an entry may only be inserted for a time in
// [now, now + horizon()]. Inserting beyond the horizon would wrap the wheel
// and silently corrupt firing order — an entry a full lap ahead shares a
// bucket with near entries and would fire a lap early — so insert() aborts
// loudly (CFDS_EXPECT) instead. Callers with unbounded delays (the
// simulator's far-event overflow heap) must route such events elsewhere;
// see docs/PERF.md. Every live entry fires at or after `now` (the kernel
// pops events in order), so bucket-resident entries lie in
// [max(now, active_end_), now + horizon()], less than one lap: ring order
// from there is time order, and an occupancy bitmap (one bit per bucket,
// scanned a word at a time) finds the earliest non-empty bucket cheaply.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"

namespace cfds {

/// A pending event as the queues order it: fire time, global scheduling
/// sequence, and the timer-slab slot that holds the callable and the
/// cancellation state. Trivially copyable on purpose — heap sifts and
/// bucket pushes move 24 bytes with no indirect calls.
struct EventEntry {
  SimTime when;
  std::uint64_t sequence;
  std::uint32_t slot;
  /// Receiver index for batch-scheduled events (one slot fired k times,
  /// once per queue entry); unused (0) for ordinary events. Lives in what
  /// would otherwise be struct padding, so entries stay 24 bytes.
  std::uint32_t aux = 0;
};

/// Comparator for max-heap algorithms: "fires later" is "smaller", which
/// keeps the earliest (time, sequence) on top — the ordering the kernel has
/// always used.
struct FiresLater {
  [[nodiscard]] bool operator()(const EventEntry& a,
                                const EventEntry& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.sequence > b.sequence;
  }
};

/// Bounded-horizon calendar queue over EventEntry. Not a drop-in
/// std::priority_queue: insert/peek/pop take `now` so the wheel can enforce
/// the horizon invariant and start its bucket scan at the present.
class CalendarQueue {
 public:
  /// Bucket width. 512us keeps per-bucket sorts small (tens of entries at
  /// simulated-dense loads) while the wheel spans seconds.
  static constexpr std::int64_t kBucketWidthUs = 512;
  /// Bucket count (power of two). The wheel must hold horizon() plus the
  /// bucket `now` sits in plus one guard bucket without wrapping:
  /// kNumBuckets >= horizon/width + 2.
  static constexpr std::size_t kNumBuckets = 8192;

  /// Latest relative delay insert() accepts: (kNumBuckets - 2) * width
  /// (~4.19 simulated seconds). Chosen to cover every channel delay
  /// (<= Thop, default 100ms) and the FDS round timers (a few Thop) with
  /// two orders of magnitude to spare.
  [[nodiscard]] static constexpr SimTime horizon() {
    return SimTime::micros(std::int64_t(kNumBuckets - 2) * kBucketWidthUs);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Inserts an entry firing at `entry.when`. Aborts (CFDS_EXPECT) unless
  /// now <= entry.when <= now + horizon().
  void insert(const EventEntry& entry, SimTime now);

  /// Pre-allocates blocks for `pending` entries, so a workload that never
  /// holds more at once never allocates on the insert path.
  void reserve(std::size_t pending);

  /// Earliest (time, sequence) entry, or nullptr when empty. May activate
  /// the earliest occupied bucket.
  [[nodiscard]] const EventEntry* peek(SimTime now);

  /// Removes and returns the earliest (time, sequence) entry. Must not be
  /// called on an empty queue.
  EventEntry pop_min(SimTime now);

  /// Free peek: the earliest entry when it is immediately known (the active
  /// window is non-empty and sorted), else nullptr. Never scans the bitmap
  /// or sorts — the kernel uses it after a pop to prefetch the next event's
  /// timer slot while the popped event runs.
  [[nodiscard]] const EventEntry* peek_free() const {
    return active_sorted_ && !active_.empty() ? &active_.back() : nullptr;
  }

 private:
  /// Entries per block. A burst bucket holds hundreds to thousands of
  /// entries, a timer bucket a handful; 32 (768 bytes) keeps the slack of a
  /// bucket's partly-filled head block small next to either.
  static constexpr std::size_t kBlockEntries = 32;
  /// Blocks per allocation when the free list runs dry (~50 KB).
  static constexpr std::size_t kChunkBlocks = 64;

  /// A link in a bucket's chain or the free list. Only a chain's head block
  /// can be partly filled: appends start a new head when it is full.
  struct Block {
    Block* next = nullptr;
    std::uint32_t count = 0;
    EventEntry entries[kBlockEntries];
  };

  void grow();
  void append(const EventEntry& entry);
  /// Moves the earliest occupied bucket at or after max(now, active_end_)
  /// into active_, sorted. Pre: active_ is empty and size_ > 0.
  void activate(SimTime now);

  [[nodiscard]] static std::size_t bucket_index(SimTime when) {
    return std::size_t((when.as_micros() / kBucketWidthUs) &
                       std::int64_t(kNumBuckets - 1));
  }

  /// Head block of each bucket's chain (nullptr: empty). Sized on first
  /// use, so simulators that never schedule into the wheel pay nothing.
  std::vector<Block*> heads_;
  std::vector<std::uint64_t> occupied_;  // one bit per bucket
  std::vector<std::unique_ptr<Block[]>> chunks_;  // owns every block
  Block* free_ = nullptr;
  /// Every entry firing before active_end_, latest-first when
  /// active_sorted_.
  std::vector<EventEntry> active_;
  SimTime active_end_ = SimTime::zero();
  bool active_sorted_ = true;
  std::size_t size_ = 0;
};

}  // namespace cfds
