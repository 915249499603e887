// Pending-event containers for the simulation kernel.
//
// The queue orders events by `(when, seq)`: earliest timestamp first,
// and FIFO among events scheduled for the same instant. That tie-break
// is a load-bearing contract — the online simulators schedule
// completion + dispatch pairs at identical timestamps and rely on
// insertion order.
//
// CalendarQueue is a power-of-two ring of date buckets (Brown's
// calendar queue) giving O(1) amortized insert and extract for the
// near-uniform event horizons a disk simulation produces. The property
// test in sim_event_queue_test checks it against a binary-heap
// reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/task.hpp"

namespace sma::sim {

struct Event {
  double when = 0.0;
  std::uint64_t seq = 0;
  Task task;
};

/// True when `a` fires after `b`: later timestamp, or same timestamp
/// and later scheduling order.
inline bool later(const Event& a, const Event& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
}

/// Calendar queue: buckets partition time into `width`-sized days; the
/// ring of `bucket_count` days forms a year. Extraction scans forward
/// from the current day; insertion drops the event into its day's
/// bucket. The structure resizes — re-picking the bucket width from the
/// live event population — whenever occupancy drifts out of band,
/// keeping both operations O(1) amortized.
///
/// A bucket is an ascending (when, seq) vector with a consumed-prefix
/// head index: the day's minimum is `v[head]`, extraction is head++,
/// and the common inserts — a new latest event, or a burst of
/// same-instant ties arriving in seq order — append at the back. Both
/// are O(1); only an out-of-order insert pays a suffix memmove.
///
/// Each event's bucket is derived from `key = floor(when / width)`
/// clamped to never sit behind the extraction cursor, so events
/// scheduled at or before the current day (same-instant ties, re-entrant
/// scheduling during dispatch) land where the next scan finds them
/// first. The cursor is monotone, which makes the clamp order-safe; the
/// property test in sim_event_queue_test checks this queue against a
/// binary-heap reference on adversarial schedules.
class CalendarQueue {
 public:
  CalendarQueue();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Event ev);
  /// Remove and return the earliest event. Precondition: !empty().
  Event pop_min();

  /// Times the structure was rebuilt (resize + width resample).
  std::uint64_t resizes() const { return resizes_; }

 private:
  struct Bucket {
    std::vector<Event> v;
    std::size_t head = 0;  // v[0..head) already extracted
    bool empty() const { return head == v.size(); }
    std::size_t live() const { return v.size() - head; }
    const Event& min() const { return v[head]; }
  };

  std::uint64_t key_of(double when) const;
  void insert_sorted(Bucket& bucket, Event ev);
  Event take_min(Bucket& bucket);
  /// Rebuild with `new_bucket_count` days. width_hint > 0 overrides the
  /// width resample (used by the bucket-overflow trigger, which has a
  /// better local density estimate than the global min/max range).
  void resize(std::size_t new_bucket_count, double width_hint = 0.0);

  std::vector<Bucket> buckets_;
  std::size_t bucket_count_;  // power of two
  std::size_t mask_;
  std::size_t size_ = 0;
  double width_ = 1.0;
  /// Day the extraction cursor is on; never decreases.
  std::uint64_t cursor_key_ = 0;
  std::uint64_t resizes_ = 0;
};

}  // namespace sma::sim
