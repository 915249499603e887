#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace sma::sim {

namespace {
constexpr std::size_t kMinBuckets = 32;
/// Keys above this would risk losing integer precision in the
/// double→uint64 conversion; the clamp only coarsens bucket choice,
/// never ordering (buckets stay internally sorted).
constexpr double kMaxKey = 1e18;
/// A day holding more events than this whose contents span a nonzero
/// time range triggers an out-of-band rewidth: the workload's time
/// scale shifted (e.g. a warm-up burst at t=0 giving way to
/// sub-millisecond service chains) without the population size — and
/// therefore the size-threshold resize — moving at all. The width is
/// resampled from that bucket's own span, which needs no extraction
/// history and is immune to far-future outliers elsewhere in the ring.
constexpr std::size_t kOverflowLen = 64;
/// Target events per day after an overflow rewidth. A handful per day
/// keeps the append fast path dominant while out-of-order inserts
/// binary-search only a few live entries; fatter days measure slower
/// (more interior-insert compares and moves than the smaller ring
/// saves in metadata footprint).
constexpr double kEventsPerDay = 4.0;
/// Grow when events-per-bucket exceeds this; shrink below kMaxLoad/4.
constexpr std::size_t kMaxLoad = 2;

/// Ascending (when, seq) — the bucket-internal order.
bool earlier(const Event& a, const Event& b) { return later(b, a); }
}  // namespace

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets), bucket_count_(kMinBuckets),
      mask_(kMinBuckets - 1) {}

std::uint64_t CalendarQueue::key_of(double when) const {
  const double q = when / width_;
  if (q <= 0.0) return 0;
  if (q >= kMaxKey) return static_cast<std::uint64_t>(kMaxKey);
  return static_cast<std::uint64_t>(q);
}

void CalendarQueue::insert_sorted(Bucket& bucket, Event ev) {
  // A new event usually carries the bucket's latest (when, seq) — it is
  // the newest schedule of its day, and same-instant ties arrive in seq
  // order — so appending is the O(1) common case. Out-of-order inserts
  // binary-search the live suffix (the consumed prefix never moves).
  std::vector<Event>& v = bucket.v;
  if (bucket.empty() || !later(v.back(), ev)) {
    v.push_back(std::move(ev));
    return;
  }
  const auto pos = std::upper_bound(
      v.begin() + static_cast<std::ptrdiff_t>(bucket.head), v.end(), ev,
      earlier);
  v.insert(pos, std::move(ev));
}

void CalendarQueue::push(Event ev) {
  // Clamp behind-the-cursor keys (same-instant ties, events scheduled
  // for the current instant during dispatch) up to the cursor's day so
  // the forward scan cannot have already passed them. The cursor is
  // monotone, so a clamped event still pops before anything later.
  std::uint64_t k = key_of(ev.when);
  if (k < cursor_key_) k = cursor_key_;
  Bucket& bucket = buckets_[k & mask_];
  insert_sorted(bucket, std::move(ev));
  ++size_;
  if (size_ > bucket_count_ * kMaxLoad) {
    resize(bucket_count_ * 2);
  } else if (bucket.live() > kOverflowLen) {
    // One day is absorbing everything: the width no longer matches the
    // event density. Resample it from this bucket's span iff that moves
    // it materially (the 2x band keeps a stable workload from resizing
    // repeatedly; a pure tie burst has zero span and stays put).
    const double range = bucket.v.back().when - bucket.min().when;
    if (range > 0.0) {
      const double w =
          kEventsPerDay * range / static_cast<double>(bucket.live());
      if (w < width_ * 0.5 || w > width_ * 2.0) resize(bucket_count_, w);
    }
  }
}

Event CalendarQueue::take_min(Bucket& bucket) {
  Event ev = std::move(bucket.v[bucket.head]);
  ++bucket.head;
  if (bucket.head == bucket.v.size()) {
    bucket.v.clear();
    bucket.head = 0;
  }
  --size_;
  if (bucket_count_ > kMinBuckets && size_ < bucket_count_ * kMaxLoad / 4)
    resize(bucket_count_ / 2);
  return ev;
}

Event CalendarQueue::pop_min() {
  assert(size_ > 0);
  // Scan one year of days starting at the cursor. A bucket's min
  // belongs to day `k` (not a later lap of the ring) iff its key is
  // <= k.
  for (std::size_t i = 0; i < bucket_count_; ++i) {
    const std::uint64_t k = cursor_key_ + i;
    Bucket& bucket = buckets_[k & mask_];
    if (!bucket.empty() && key_of(bucket.min().when) <= k) {
      cursor_key_ = k;
      return take_min(bucket);
    }
  }
  // Nothing within a year of the cursor: the population is sparse or
  // far in the future. Fall back to a direct search for the global
  // minimum and jump the cursor to it.
  Bucket* best = nullptr;
  for (Bucket& bucket : buckets_) {
    if (bucket.empty()) continue;
    if (best == nullptr || later(best->min(), bucket.min())) best = &bucket;
  }
  assert(best != nullptr);
  cursor_key_ = std::max(cursor_key_, key_of(best->min().when));
  return take_min(*best);
}

void CalendarQueue::resize(std::size_t new_bucket_count, double width_hint) {
  std::vector<Event> all;
  all.reserve(size_);
  for (Bucket& bucket : buckets_)
    for (std::size_t i = bucket.head; i < bucket.v.size(); ++i)
      all.push_back(std::move(bucket.v[i]));
  std::sort(all.begin(), all.end(), earlier);

  // Resample the bucket width so one day holds O(1) events: the
  // caller's local density estimate when given, else the population's
  // min/max range spread over one ring lap.
  if (width_hint > 0.0) {
    width_ = std::max(width_hint, std::numeric_limits<double>::min());
  } else if (!all.empty() && all.back().when > all.front().when) {
    const double range = all.back().when - all.front().when;
    double w = kEventsPerDay * range / static_cast<double>(all.size());
    // Keep keys representable and the width a normal double.
    w = std::max(w, range / 1e15);
    w = std::max(w, std::numeric_limits<double>::min());
    width_ = w;
  }

  buckets_.clear();
  buckets_.resize(new_bucket_count);
  bucket_count_ = new_bucket_count;
  mask_ = new_bucket_count - 1;
  ++resizes_;

  // Re-aim the cursor at the earliest surviving event under the new
  // width; reinserting in ascending order keeps every append O(1).
  cursor_key_ = all.empty() ? 0 : key_of(all.front().when);
  size_ = 0;
  for (Event& ev : all) {
    std::uint64_t k = key_of(ev.when);
    if (k < cursor_key_) k = cursor_key_;
    buckets_[k & mask_].v.push_back(std::move(ev));
    ++size_;
  }
}

}  // namespace sma::sim
