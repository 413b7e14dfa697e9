// Chase–Lev work-stealing deque (Chase & Lev, SPAA 2005; memory ordering
// after Lê et al., PPoPP 2013). Owner pushes/pops at the bottom without
// locks; thieves steal from the top with a single CAS. Backs the hot paths
// of every work-stealing scheduler here (WS, PWS, CilkWS); `top_` and
// `bottom_` live on separate cache lines so thief CAS traffic does not
// invalidate the owner's push/pop line.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sched/ops.h"
#include "util/assert.h"

namespace sbs::sched {

template <class T>
class ChaseLevDeque {
 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : buffer_(new Ring(initial_capacity)) {}

  ~ChaseLevDeque() {
    // Relaxed: destruction requires external quiescence (no owner, no
    // thieves); there is nothing left to synchronize with.
    delete buffer_.load(std::memory_order_relaxed);
    for (Ring* r : retired_) delete r;
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only.
  void push_bottom(T item) {
    count_op();
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(ring->capacity)) {
      ring = grow(ring, t, b);
    }
    ring->put(b, item);
    // Release store: a thief that acquire-loads bottom_ and sees b+1 also
    // sees the slot write above *and* every preceding write to the item
    // itself (jobs are published fully initialized).
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns false when empty.
  bool pop_bottom(T* out) {
    count_op();
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    seq_cst_fence();
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // already empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    *out = ring->get(b);
    if (t == b) {
      // Last element: race against thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
      }
      // Relaxed: restoring bottom after winning the last-element race;
      // the seq-cst CAS above already ordered this pop against thieves.
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Any thread. Returns false on empty or lost race.
  bool steal_top(T* out) {
    count_op();
    return steal_one(out);
  }

  /// Any thread. Steal up to `max_n` items from the top, oldest first, by
  /// repeating the single-item protocol; stops at the first empty deque or
  /// lost race. Returns the number of items written to `out`.
  ///
  /// One CAS per item on purpose: claiming a range with one CAS is unsound.
  /// An owner pop_bottom that read a stale top may take a slot inside the
  /// claimed range, and one that loses the race for such a slot lowers
  /// bottom_ for a moment; the thief cannot tell the two apart, and the
  /// contention tests lost items that way.
  std::size_t steal_some(T* out, std::size_t max_n) {
    count_op();
    std::size_t got = 0;
    while (got < max_n && steal_one(out + got)) ++got;
    return got;
  }

  bool empty() const {
    // Acquire on both indices: an advisory snapshot (callers tolerate
    // staleness) but never reads indices out of thin air.
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
  }

 private:
  bool steal_one(T* out) {
    // Classic steal (Lê et al.): the fence orders our top_ read before the
    // bottom_ read against pop_bottom's store/fence/load, acquire on
    // buffer_ pairs with grow()'s release, and the seq-cst CAS decides the
    // last-element race with the owner.
    std::int64_t t = top_.load(std::memory_order_acquire);
    seq_cst_fence();
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    Ring* ring = buffer_.load(std::memory_order_acquire);
    T item = ring->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;
    }
    *out = item;
    return true;
  }

  struct Ring {
    explicit Ring(std::size_t cap) : capacity(cap), slots(cap) {}
    std::size_t capacity;
    std::vector<std::atomic<T>> slots;

    T get(std::int64_t i) const {
      // Relaxed slot access: slots carry no ordering of their own — the
      // top_/bottom_ protocol (release publish, seq-cst claim) decides
      // which slots are owned; atomicity only prevents torn reads.
      return slots[static_cast<std::size_t>(i) & (capacity - 1)].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      // Relaxed: see get() — ordering comes from the index protocol.
      slots[static_cast<std::size_t>(i) & (capacity - 1)].store(
          v, std::memory_order_relaxed);
    }
  };

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    // Release publishes the copied slots with the new ring pointer;
    // pairs with the acquire loads of buffer_ on the thief paths.
    buffer_.store(bigger, std::memory_order_release);
    // Old ring may still be read by in-flight thieves; retire, free at dtor.
    retired_.push_back(old);
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> buffer_;
  std::vector<Ring*> retired_;  // owner-only mutation (inside push_bottom)
};

}  // namespace sbs::sched
