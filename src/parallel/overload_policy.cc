#include "parallel/overload_policy.h"

#include <chrono>
#include <thread>

namespace smb {

void OverloadBackOff(const OverloadParams& params, size_t round,
                     OverloadCounters* counters) {
  ++counters->ring_full_retries;
  if (round < params.spin_limit) {
    return;  // tight spin: retry immediately
  }
  ++counters->ring_full_stalls;
  if (round < params.spin_limit + params.yield_limit) {
    std::this_thread::yield();
    return;
  }
  const size_t sleep_round = round - params.spin_limit - params.yield_limit;
  uint64_t sleep_us = params.sleep_initial_us;
  for (size_t i = 0; i < sleep_round && sleep_us < params.sleep_max_us;
       ++i) {
    sleep_us *= 2;
  }
  if (sleep_us > params.sleep_max_us) sleep_us = params.sleep_max_us;
  std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
}

}  // namespace smb
