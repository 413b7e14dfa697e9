#include "runtime/arena.h"

void Arena::add() {
  // Relaxed: a leak-check counter.
  live_.fetch_add(1, std::memory_order_relaxed);
}

void Arena::remove() {
  // Relaxed: a leak-check counter.
  live_.fetch_sub(1, std::memory_order_relaxed);
}

void Arena::reset() {
  // Acquire: meant to see the freed chunks (seeded bug: nothing releases).
  while (live_.load(std::memory_order_acquire) != 0) {
  }
}
