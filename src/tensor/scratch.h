// Thread-local scratch arena for kernel workspace: padded conv input
// planes, im2col buffers, GEMM packing panels, RNN gate pre-activations,
// per-shard gradient accumulators. A bump allocator over a small list of
// growing blocks; Scope gives stack discipline, so steady-state
// iterations reuse the blocks reserved by the first one and perform zero
// heap allocations (TotalBlockAllocs is the test hook that asserts this).
#ifndef MODELSLICING_TENSOR_SCRATCH_H_
#define MODELSLICING_TENSOR_SCRATCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/status.h"

namespace ms {

class ScratchArena {
 public:
  /// Arena of the calling thread. Pool workers each get their own, so
  /// parallel shards never contend or share buffers.
  static ScratchArena& ForThread() {
    static thread_local ScratchArena arena;
    return arena;
  }

  /// Restores the arena's bump cursor on destruction. Buffers handed out
  /// inside the scope are invalid after it ends; scopes nest (the GEMM
  /// driver opens one inside a layer's).
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena), block_(arena.block_), used_(arena.used_) {}
    ~Scope() {
      arena_.block_ = block_;
      arena_.used_ = used_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScratchArena& arena_;
    size_t block_;
    size_t used_;
  };

  /// A 64-byte-aligned float buffer of n elements, valid until the
  /// enclosing Scope ends. Contents are uninitialized.
  float* Alloc(int64_t n) {
    MS_CHECK(n >= 0);
    const size_t need = RoundUp(static_cast<size_t>(n));
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const size_t at = RoundUp(used_);
      if (at + need <= b.capacity) {
        used_ = at + need;
        return b.aligned + at;
      }
      ++block_;
      used_ = 0;
    }
    AddBlock(need);
    used_ = need;
    return blocks_.back().aligned;
  }

  /// Like Alloc but zero-filled.
  float* AllocZeroed(int64_t n) {
    float* p = Alloc(n);
    std::fill(p, p + n, 0.0f);
    return p;
  }

  /// Total floats reserved across blocks (monotone; never shrinks).
  size_t reserved_floats() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.capacity;
    return total;
  }

  /// Process-wide count of block allocations. Steady-state hot loops must
  /// not grow it; tests assert it stays flat across warmed-up iterations.
  static uint64_t TotalBlockAllocs() {
    return alloc_events_.load(std::memory_order_relaxed);
  }

 private:
  // 64-byte alignment, in floats.
  static constexpr size_t kAlign = 16;
  static constexpr size_t kMinBlock = 1 << 14;  // 64 KiB

  struct Block {
    std::unique_ptr<float[]> storage;
    float* aligned = nullptr;
    size_t capacity = 0;
  };

  static size_t RoundUp(size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

  void AddBlock(size_t need) {
    size_t cap = kMinBlock;
    if (!blocks_.empty()) cap = blocks_.back().capacity * 2;
    if (cap < need) cap = RoundUp(need);
    Block b;
    // Uninitialised, as Alloc promises: a zero-fill would make the whole
    // block resident even when a scope only touches its head.
    b.storage = std::make_unique_for_overwrite<float[]>(cap + kAlign);
    const auto addr = reinterpret_cast<uintptr_t>(b.storage.get());
    const uintptr_t aligned =
        (addr + kAlign * sizeof(float) - 1) & ~(kAlign * sizeof(float) - 1);
    b.aligned = reinterpret_cast<float*>(aligned);
    b.capacity = cap;
    blocks_.push_back(std::move(b));
    block_ = blocks_.size() - 1;
    alloc_events_.fetch_add(1, std::memory_order_relaxed);
  }

  static inline std::atomic<uint64_t> alloc_events_{0};

  std::vector<Block> blocks_;
  size_t block_ = 0;  // current block index
  size_t used_ = 0;   // floats used in current block
};

}  // namespace ms

#endif  // MODELSLICING_TENSOR_SCRATCH_H_
