#pragma once
#include <atomic>

// Same member name as Pool::live_, but its protocol is broken: reset()
// acquire-loads live_ while every write is relaxed.
class Arena {
 public:
  void add();
  void remove();
  void reset();

 private:
  std::atomic<long> live_{0};
};
