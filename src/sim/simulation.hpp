// Discrete-event simulation kernel.
//
// Used by the on-line reconstruction experiments, where user read
// requests arrive while rebuild I/O drains in the background and the
// two must interleave on per-disk queues. The batch throughput
// experiments use the disks' timeline model directly and do not need
// the kernel.
//
// Events are scheduled on a calendar queue (O(1) amortized
// insert/extract) over arena-backed sim::Task events (zero steady-state
// heap traffic). Events fire in (when, seq) order — earliest first,
// FIFO among same-instant events.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace sma::obs {
struct Observer;
}  // namespace sma::obs

namespace sma::sim {

class Simulation {
 public:
  double now() const { return now_; }

  /// Attach an observer: as the clock advances past metric-sampling
  /// cadence boundaries the kernel drives MetricsRegistry::advance_to,
  /// so timelines are sampled on simulated time without scheduling
  /// events (observation cannot perturb the simulated system). Null
  /// (the default) disables the hook — one branch per event.
  void set_observer(obs::Observer* observer) { observer_ = observer; }
  obs::Observer* observer() const { return observer_; }

  /// Schedule `fn` to run at absolute simulated time `when` (>= now).
  template <class F>
  void schedule_at(double when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    calendar_.push(
        Event{when, next_seq_++, Task(std::forward<F>(fn), &arena_)});
  }

  /// Schedule `fn` after `delay` seconds of simulated time.
  template <class F>
  void schedule_in(double delay, F&& fn) {
    assert(delay >= 0.0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run events until the queue drains. Returns the final clock.
  double run();
  /// Run events with time <= deadline; clock ends at min(deadline,
  /// drain time).
  double run_until(double deadline);

  std::size_t executed_events() const { return executed_; }
  std::size_t pending_events() const { return calendar_.size(); }

 private:
  double now_ = 0.0;
  obs::Observer* observer_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  // The arena outlives the queue (members destroy in reverse order), so
  // Tasks still pending at teardown release into a live arena.
  TaskArena arena_;
  CalendarQueue calendar_;
};

}  // namespace sma::sim
