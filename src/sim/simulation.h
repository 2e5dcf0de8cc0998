// Simulation context: event loop + root RNG + run bookkeeping.
//
// Every component that needs time or randomness receives a Simulation*
// (non-owning); the scenario layer owns the Simulation for the duration of a
// run.

#ifndef AIRFAIR_SRC_SIM_SIMULATION_H_
#define AIRFAIR_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <utility>

#include "src/sim/event_loop.h"
#include "src/util/attributes.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace airfair {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  EventLoop& loop() { return loop_; }

  Rng& rng() { return rng_; }

  TimeUs now() const { return loop_.now(); }

  AF_NODISCARD EventHandle At(TimeUs when, EventFn fn) {
    return loop_.ScheduleAt(when, std::move(fn));
  }
  AF_NODISCARD EventHandle After(TimeUs delay, EventFn fn) {
    return loop_.ScheduleAfter(delay, std::move(fn));
  }

  // Fire-and-forget variants: no handle, and (for closures within EventFn's
  // inline buffer) no heap allocation at all.
  void PostAt(TimeUs when, EventFn fn) { loop_.PostAt(when, std::move(fn)); }
  void PostAfter(TimeUs delay, EventFn fn) { loop_.PostAfter(delay, std::move(fn)); }

  void RunFor(TimeUs duration) { RunUntil(now() + duration); }
  void RunUntil(TimeUs end) { loop_.RunUntil(end); }

 private:
  EventLoop loop_;
  Rng rng_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_SIM_SIMULATION_H_
