#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "util/rng.hpp"

namespace sma::sim {
namespace {

Event make_event(double when, std::uint64_t seq) {
  return Event{when, seq, Task([] {})};
}

/// O(log n) reference min-queue on (when, seq) via std::push_heap /
/// std::pop_heap, for the calendar-queue property test.
class BinaryHeapQueue {
 public:
  bool empty() const { return heap_.empty(); }

  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  Event pop_min() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

 private:
  std::vector<Event> heap_;
};

// --- Task / TaskArena -------------------------------------------------

TEST(Task, SmallCallablesStayInline) {
  int hits = 0;
  Task t([&hits] { ++hits; });
  EXPECT_TRUE(t.inline_stored());
  t();
  t();
  EXPECT_EQ(hits, 2);
}

TEST(Task, RepresentativeSimulatorCaptureUsesArenaFreeList) {
  // The online simulators' completion lambdas capture a by-value job
  // struct plus ~10 references — far past kInlineBytes, so they take
  // the arena path. What matters is that the path is malloc-free in
  // steady state: blocks recycle through the free list (one slab, no
  // oversize round-trips), where std::function would heap-allocate per
  // event.
  struct Job {
    std::int64_t slot;
    int kind, request_id, stripe, data_disk, row, attempts;
  };
  Job job{1, 2, 3, 4, 5, 6, 7};
  void* refs[9] = {};
  TaskArena arena;
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    Task t([job, refs, &hits] {
      ++hits;
      (void)job;
      (void)refs;
    },
           &arena);
    EXPECT_FALSE(t.inline_stored());
    t();
  }
  EXPECT_EQ(hits, 100);
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_EQ(arena.oversize_allocs(), 0u);
}

TEST(Task, OversizedCallableUsesArena) {
  TaskArena arena;
  char big[256] = {1};
  int hits = 0;
  Task t([big, &hits] { hits += big[0]; }, &arena);
  EXPECT_FALSE(t.inline_stored());
  t();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_EQ(arena.oversize_allocs(), 0u);
}

TEST(Task, MoveTransfersTheCallable) {
  int hits = 0;
  Task a([&hits] { ++hits; });
  Task b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(TaskArena, RecyclesReleasedBlocks) {
  TaskArena arena;
  void* p = arena.allocate(200);
  arena.release(p, 200);
  // Same size class comes back off the free list: no new slab.
  void* q = arena.allocate(200);
  EXPECT_EQ(p, q);
  EXPECT_EQ(arena.slab_count(), 1u);
  arena.release(q, 200);
}

// --- ordering property: calendar vs reference heap --------------------

/// Drives both queues through an identical schedule and asserts every
/// extraction matches. Mixes the adversarial shapes the simulators
/// produce: same-instant FIFO ties, near ties, short horizons, far
/// horizons, and schedule-during-dispatch (pushes at or just after the
/// time that was just popped).
void fuzz_against_reference(std::uint64_t seed, int steps) {
  Rng rng(seed);
  CalendarQueue cal;
  BinaryHeapQueue heap;
  std::uint64_t seq = 0;
  double now = 0.0;
  auto push_both = [&](double when) {
    cal.push(make_event(when, seq));
    heap.push(make_event(when, seq));
    ++seq;
  };
  auto pop_both = [&]() {
    ASSERT_FALSE(cal.empty());
    ASSERT_FALSE(heap.empty());
    const Event a = cal.pop_min();
    const Event b = heap.pop_min();
    ASSERT_EQ(a.when, b.when) << "seed " << seed;
    ASSERT_EQ(a.seq, b.seq) << "seed " << seed;
    ASSERT_GE(a.when, now);
    now = a.when;
  };
  for (int i = 0; i < steps; ++i) {
    if (cal.empty() || rng.next_double() < 0.55) {
      const double u = rng.next_double();
      double when;
      if (u < 0.2)
        when = now;  // same-instant tie
      else if (u < 0.3)
        when = now + 1e-9;  // near tie
      else if (u < 0.7)
        when = now + rng.next_double() * 10.0;  // typical horizon
      else
        when = now + rng.next_double() * 1e6;  // far future
      push_both(when);
    } else {
      pop_both();
      // Schedule-during-dispatch: a handler enqueueing follow-up work
      // at (or immediately after) its own fire time.
      if (rng.next_double() < 0.4) push_both(now + rng.next_double() * 2.0);
      if (rng.next_double() < 0.1) push_both(now);
    }
  }
  while (!cal.empty()) pop_both();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(cal.size(), 0u);
}

TEST(EventQueue, CalendarMatchesReferenceHeapOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    fuzz_against_reference(seed, 4000);
}

TEST(EventQueue, SameTimeEventsPopInFifoOrder) {
  CalendarQueue cal;
  for (std::uint64_t s = 0; s < 100; ++s) cal.push(make_event(7.0, s));
  for (std::uint64_t s = 0; s < 100; ++s) {
    const Event ev = cal.pop_min();
    EXPECT_EQ(ev.seq, s);
    EXPECT_EQ(ev.when, 7.0);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(EventQueue, GrowShrinkCyclesPreserveOrder) {
  // Push far past the resize threshold, drain halfway (forcing
  // shrinks), refill, then drain fully — extraction order must stay
  // globally sorted throughout.
  Rng rng(99);
  CalendarQueue cal;
  std::uint64_t seq = 0;
  for (int i = 0; i < 3000; ++i)
    cal.push(make_event(rng.next_double() * 1e4, seq++));
  EXPECT_GT(cal.resizes(), 0u);
  double last = -1.0;
  for (int i = 0; i < 1500; ++i) {
    const Event ev = cal.pop_min();
    EXPECT_GE(ev.when, last);
    last = ev.when;
  }
  for (int i = 0; i < 3000; ++i)
    cal.push(make_event(last + rng.next_double() * 1e4, seq++));
  while (!cal.empty()) {
    const Event ev = cal.pop_min();
    EXPECT_GE(ev.when, last);
    last = ev.when;
  }
}

TEST(EventQueue, SparseFarFutureEventsStillExtractInOrder) {
  // Events spread over wildly different magnitudes force the
  // year-scan's direct-search fallback.
  CalendarQueue cal;
  cal.push(make_event(1e12, 0));
  cal.push(make_event(3.0, 1));
  cal.push(make_event(1e7, 2));
  cal.push(make_event(3.0, 3));
  EXPECT_EQ(cal.pop_min().seq, 1u);
  EXPECT_EQ(cal.pop_min().seq, 3u);
  EXPECT_EQ(cal.pop_min().seq, 2u);
  EXPECT_EQ(cal.pop_min().seq, 0u);
  EXPECT_TRUE(cal.empty());
}

}  // namespace
}  // namespace sma::sim
