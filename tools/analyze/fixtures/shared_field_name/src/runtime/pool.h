#pragma once
#include <atomic>

// Same member name as Arena::live_, correctly paired: the acq_rel decrement
// releases to the acquire load in idle().
class Pool {
 public:
  void finish() {
    // Acq_rel: publishes the job's writes to idle().
    live_.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool idle() const {
    // Acquire: pairs with the acq_rel decrement in finish().
    return live_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::atomic<long> live_{0};
};
