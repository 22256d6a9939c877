#include "src/hybrid/scheduler.hpp"

#include "src/obs/obs.hpp"

namespace efd::hybrid {

namespace {
void record_decision([[maybe_unused]] int interface_index) {
  EFD_COUNTER_INC("hybrid.sched.decisions");
  EFD_HISTO_OBSERVE("hybrid.sched.interface", interface_index);
}
}  // namespace

int CapacityScheduler::pick(const net::Packet&) {
  int picked = 0;
  if (!capacities_.empty()) {
    double total = 0.0;
    for (double c : capacities_) total += c;
    if (total > 0.0) {
      double x = rng_.uniform(0.0, total);
      picked = static_cast<int>(capacities_.size()) - 1;
      for (std::size_t i = 0; i < capacities_.size(); ++i) {
        x -= capacities_[i];
        if (x <= 0.0) {
          picked = static_cast<int>(i);
          break;
        }
      }
    } else {
      // All-zero capacities: round-robin so no interface is starved of the
      // traffic that would reveal its recovery.
      picked = rr_next_;
      rr_next_ = (rr_next_ + 1) % static_cast<int>(capacities_.size());
      EFD_COUNTER_INC("hybrid.sched.zero_cap_fallbacks");
    }
  }
  record_decision(picked);
  return picked;
}

int RoundRobinScheduler::pick(const net::Packet&) {
  const int i = next_;
  next_ = (next_ + 1) % n_;
  record_decision(i);
  return i;
}

}  // namespace efd::hybrid
