#include "sim/simulation.hpp"

#include <limits>

#include "obs/observer.hpp"

namespace sma::sim {

double Simulation::run() {
  // A drain to +inf never takes the advance_time(deadline) epilogue:
  // the loop only exits with the queue empty and now_ < inf.
  return run_until(std::numeric_limits<double>::infinity());
}

double Simulation::run_until(double deadline) {
  while (!calendar_.empty()) {
    Event ev = calendar_.pop_min();
    if (ev.when > deadline) {
      // Past the horizon: put it back (same seq, so ordering among
      // same-time events is untouched) and stop.
      calendar_.push(std::move(ev));
      break;
    }
    // Sample metric timelines at every cadence boundary the clock is
    // about to cross — before the event runs, so a tick at exactly
    // ev.when sees the pre-event state deterministically.
    if (observer_ != nullptr) observer_->advance_time(ev.when);
    now_ = ev.when;
    ++executed_;
    ev.task();
  }
  if (now_ < deadline && calendar_.empty()) return now_;
  if (observer_ != nullptr) observer_->advance_time(deadline);
  now_ = deadline;
  return now_;
}

}  // namespace sma::sim
