// ScratchArena unit tests plus the steady-state zero-allocation assertion
// for the conv/RNN hot paths: after a warm-up pass, repeated forwards (and
// a training step's backward) must not grow the arena block count.
#include <cstdint>

#include "gtest/gtest.h"
#include "src/nn/conv2d.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/sliced_matmul.h"
#include "src/tensor/prepack.h"
#include "src/tensor/gemm.h"
#include "src/tensor/scratch.h"
#include "src/util/rng.h"

namespace ms {
namespace {

TEST(ScratchArena, AlignmentAndScopeReuse) {
  ScratchArena& arena = ScratchArena::ForThread();
  float* first = nullptr;
  {
    ScratchArena::Scope scope(arena);
    first = arena.Alloc(100);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % 64, 0u);
    float* second = arena.Alloc(7);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(second) % 64, 0u);
    EXPECT_NE(first, second);
  }
  // After the scope ends the same buffer is handed out again.
  ScratchArena::Scope scope(arena);
  EXPECT_EQ(arena.Alloc(100), first);
}

TEST(ScratchArena, NestedScopesRestoreInOrder) {
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope outer(arena);
  float* a = arena.Alloc(32);
  float* inner_ptr = nullptr;
  {
    ScratchArena::Scope inner(arena);
    inner_ptr = arena.Alloc(32);
    EXPECT_NE(inner_ptr, a);
  }
  // Inner allocation is rolled back; outer's survives.
  EXPECT_EQ(arena.Alloc(32), inner_ptr);
  a[0] = 1.0f;  // still valid
}

TEST(ScratchArena, AllocZeroedZeroes) {
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* p = arena.Alloc(64);
  for (int i = 0; i < 64; ++i) p[i] = 42.0f;
  {
    ScratchArena::Scope inner(arena);
  }
  ScratchArena::Scope again(arena);
  float* z = arena.AllocZeroed(64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(z[i], 0.0f);
}

TEST(ScratchArena, GrowsAcrossBlocksAndCountsAllocs) {
  ScratchArena& arena = ScratchArena::ForThread();
  const uint64_t before = ScratchArena::TotalBlockAllocs();
  ScratchArena::Scope scope(arena);
  // Demand more than any single existing block to force at least one new
  // block, then confirm the counter moved.
  const int64_t huge =
      static_cast<int64_t>(arena.reserved_floats()) + (1 << 15);
  float* p = arena.Alloc(huge);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0f;
  p[huge - 1] = 2.0f;
  EXPECT_GT(ScratchArena::TotalBlockAllocs(), before);
}

// Warm up a module once, then assert the arena block count stays flat over
// further iterations. Serial compute keeps every allocation on this
// thread's arena so the count is deterministic.
template <typename Fn>
void ExpectSteadyStateZeroArenaGrowth(Fn&& iteration) {
  ops::SetComputeThreads(1);
  iteration();  // warm-up: may allocate blocks
  iteration();  // second pass settles any growing caches
  const uint64_t warmed = ScratchArena::TotalBlockAllocs();
  for (int i = 0; i < 5; ++i) iteration();
  EXPECT_EQ(ScratchArena::TotalBlockAllocs(), warmed);
}

TEST(SteadyState, Conv2dForwardBackwardZeroArenaGrowth) {
  Rng rng(1);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 16;
  opts.bias = true;
  Conv2d conv(opts, &rng);
  Tensor x = Tensor::Randn({4, 8, 10, 10}, &rng);
  ExpectSteadyStateZeroArenaGrowth([&] {
    Tensor y = conv.Forward(x, /*training=*/true);
    conv.Backward(y);
  });
}

TEST(SteadyState, LstmForwardBackwardZeroArenaGrowth) {
  Rng rng(2);
  LstmOptions opts;
  opts.input_size = 24;
  opts.hidden_size = 32;
  Lstm lstm(opts, &rng);
  Tensor x = Tensor::Randn({6, 4, 24}, &rng);
  ExpectSteadyStateZeroArenaGrowth([&] {
    Tensor y = lstm.Forward(x, /*training=*/true);
    lstm.Backward(y);
  });
}

TEST(SteadyState, GruInferenceZeroArenaGrowth) {
  Rng rng(3);
  GruOptions opts;
  opts.input_size = 24;
  opts.hidden_size = 32;
  Gru gru(opts, &rng);
  Tensor x = Tensor::Randn({6, 4, 24}, &rng);
  ExpectSteadyStateZeroArenaGrowth([&] {
    Tensor y = gru.Forward(x, /*training=*/false);
  });
}

// The weight operator every GEMM layer runs: once its packs exist,
// Prepare is a cache check and Apply a kernel call — no arena growth and
// no repacking, for either role and precision.
TEST(SteadyState, SlicedMatmulPrepareApplyZeroAlloc) {
  Rng rng(5);
  const int64_t rows = 24, cols = 40, m = 6;
  Tensor w = Tensor::Randn({rows, cols}, &rng);
  Tensor x = Tensor::Randn({m, cols}, &rng);
  Tensor y({m, rows});
  SlicedMatmul right(SlicedMatmul::Role::kRight, &w, 0, rows, cols,
                     {20, 40});
  SlicedMatmul left(SlicedMatmul::Role::kLeft, &w, 0, rows, cols, {20, 40});
  const uint64_t packs = ops::TotalPackCount();
  ExpectSteadyStateZeroArenaGrowth([&] {
    for (const Precision p : {Precision::kFp32, Precision::kInt8}) {
      right.Prepare(p, /*training=*/false);
      right.Apply(m, rows / 2, 20, 1.0f, x.data(), 0.0f, y.data());
      left.Prepare(p, /*training=*/false);
      left.Apply(ops::ColsView::Matrix(x.data(), m, m), rows / 2, 20, 0.0f,
                 y.data());
    }
  });
  // The first iteration packs all four forms; later ones pack nothing.
  EXPECT_EQ(ops::TotalPackCount(), packs + 4);
}

// The RNN scratch buffers (gate pre-activations, step caches) are shape
// containers, not accumulators: every element is written before it is
// read, so EnsureShape must hand back capacity without a redundant
// zero-fill. Tensor::TotalFillEvents() counts every Fill/Zero/zeroing
// construction; once the layer is warm, repeated forwards must not bump
// it (the outputs themselves are Tensor::Uninit).
TEST(SteadyState, RnnForwardNoRedundantZeroFill) {
  Rng rng(4);
  LstmOptions lopts;
  lopts.input_size = 24;
  lopts.hidden_size = 32;
  Lstm lstm(lopts, &rng);
  GruOptions gopts;
  gopts.input_size = 24;
  gopts.hidden_size = 32;
  Gru gru(gopts, &rng);
  Tensor x = Tensor::Randn({6, 4, 24}, &rng);
  // Warm-up: packs, caches and scratch shapes settle.
  lstm.Forward(x, /*training=*/false);
  gru.Forward(x, /*training=*/false);
  const uint64_t fills_before = Tensor::TotalFillEvents();
  for (int iter = 0; iter < 3; ++iter) {
    Tensor yl = lstm.Forward(x, /*training=*/false);
    Tensor yg = gru.Forward(x, /*training=*/false);
  }
  EXPECT_EQ(Tensor::TotalFillEvents(), fills_before)
      << "steady-state RNN inference re-zeroed a scratch buffer";
}

}  // namespace
}  // namespace ms
