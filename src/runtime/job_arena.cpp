#include "runtime/job_arena.h"

#include <new>

#include "util/assert.h"

namespace sbs::runtime {

namespace {

thread_local JobArena* tl_current_arena = nullptr;

constexpr std::uintptr_t kLineMask = 63;

char* align_up(char* p) {
  return reinterpret_cast<char*>(
      (reinterpret_cast<std::uintptr_t>(p) + kLineMask) & ~kLineMask);
}

}  // namespace

JobArena::Scope::Scope(JobArena* arena) : prev_(tl_current_arena) {
  tl_current_arena = arena;
}

JobArena::Scope::~Scope() { tl_current_arena = prev_; }

JobArena* JobArena::current() { return tl_current_arena; }

JobArena::~JobArena() {
  for (char* slab : slabs_) ::operator delete(slab);
}

void* JobArena::allocate(std::size_t bytes) {
  JobArena* arena = tl_current_arena;
  if (arena != nullptr && bytes + kHeaderBytes <= kMaxBlockBytes) {
    return arena->allocate_block(bytes);
  }
  // Heap fallback: same layout, owner = nullptr.
  char* raw = static_cast<char*>(::operator new(bytes + kHeaderBytes));
  Header* h = reinterpret_cast<Header*>(raw);
  h->owner = nullptr;
  h->cls = 0;
  return raw + kHeaderBytes;
}

void JobArena::deallocate(void* payload) {
  if (payload == nullptr) return;
  Header* h = reinterpret_cast<Header*>(static_cast<char*>(payload) -
                                        kHeaderBytes);
  JobArena* owner = h->owner;
  if (owner == nullptr) {
    ::operator delete(static_cast<void*>(h));
    return;
  }
  if (owner == tl_current_arena) {
    owner->free_local(h);
  } else {
    owner->free_remote(h);
  }
}

void* JobArena::allocate_block(std::size_t payload_bytes) {
  const std::size_t cls = (payload_bytes + kHeaderBytes - 1) / kGranularity;
  SBS_ASSERT(cls < kClasses);

  FreeNode* node = local_free_[cls];
  // Relaxed emptiness probe: cheap filter before the exchange below,
  // which carries the real (acquire) ordering.
  if (node == nullptr &&
      remote_free_[cls].load(std::memory_order_relaxed) != nullptr) {
    // Claim the whole remote chain in one exchange; the acquire pairs with
    // the release CAS in free_remote so the freeing thread's writes (the
    // object's destruction) happen-before our reuse.
    node = remote_free_[cls].exchange(nullptr, std::memory_order_acquire);
    local_free_[cls] = node;
  }

  char* block;
  if (node != nullptr) {
    local_free_[cls] = node->next;
    block = reinterpret_cast<char*>(node);
  } else {
    block = carve((cls + 1) * kGranularity);
  }

  Header* h = reinterpret_cast<Header*>(block);
  h->owner = this;
  h->cls = static_cast<std::uint32_t>(cls);
  // Relaxed: live_ is a leak-check counter, only compared against zero
  // at reset() after the pool quiesced.
  live_.fetch_add(1, std::memory_order_relaxed);
  return block + kHeaderBytes;
}

char* JobArena::carve(std::size_t stride) {
  if (bump_ == nullptr ||
      bump_ + stride > slab_end_) {
    if (next_slab_ == slabs_.size()) {
      slabs_.push_back(
          static_cast<char*>(::operator new(kSlabBytes + kLineMask)));
    }
    char* raw = slabs_[next_slab_++];
    bump_ = align_up(raw);
    slab_end_ = raw + kSlabBytes + kLineMask;
  }
  char* block = bump_;
  bump_ += stride;
  return block;
}

void JobArena::free_local(Header* h) {
  const std::size_t cls = h->cls;
  auto* node = reinterpret_cast<FreeNode*>(h);
  node->next = local_free_[cls];
  local_free_[cls] = node;
  // Relaxed: leak-check counter (see allocate_block).
  live_.fetch_sub(1, std::memory_order_relaxed);
}

void JobArena::free_remote(Header* h) {
  const std::size_t cls = h->cls;
  auto* node = reinterpret_cast<FreeNode*>(h);
  // Treiber push. Relaxed seed + failure loads are fine — the CAS
  // revalidates `head`; the release on success publishes the freed
  // object's final writes to the owner's acquire exchange in
  // allocate_block.
  FreeNode* head = remote_free_[cls].load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!remote_free_[cls].compare_exchange_weak(
      head, node, std::memory_order_release, std::memory_order_relaxed));
  // Relaxed: leak-check counter (see allocate_block).
  live_.fetch_sub(1, std::memory_order_relaxed);
}

void JobArena::reset() {
  // Relaxed: the caller guarantees quiescence (job_arena.h), and that
  // guarantee orders every free before this check; the decrements above
  // are relaxed, so an acquire here would synchronize with nothing.
  SBS_CHECK_MSG(live_.load(std::memory_order_relaxed) == 0,
                "JobArena::reset with live blocks");
  for (std::size_t c = 0; c < kClasses; ++c) {
    local_free_[c] = nullptr;
    // Relaxed: reset runs single-threaded after quiescence.
    remote_free_[c].store(nullptr, std::memory_order_relaxed);
  }
  next_slab_ = 0;
  bump_ = nullptr;
  slab_end_ = nullptr;
}

}  // namespace sbs::runtime
