// Packed, cache-blocked, thread-parallel single-precision GEMM — the one
// compute kernel every dense/conv/recurrent layer, the incremental
// evaluator and the serving engine's forwards funnel through.
//
// Determinism contract (see DESIGN.md "Kernel layer"):
//   * Each output element is one scalar accumulation over p = 0..k-1 in
//     increasing order of t_p = (alpha * a_p) * b_p, merged once into the
//     beta-scaled C entry. All four transpose variants, the packed kernel,
//     and GemmRef implement exactly this sequence, so they agree bitwise.
//   * The block grid is fixed by compile-time tile constants, every
//     thread writes a disjoint set of output tiles, and no atomics touch
//     C — results are bitwise identical for any thread count.
//   * When the FMA microkernel is active (AVX2 build on an AVX2 machine),
//     t_p is contracted, i.e. acc = fma(alpha*a_p, b_p, acc); GemmRef
//     dispatches to an std::fmaf reference so exact equality holds per
//     build flavor.
#ifndef MODELSLICING_TENSOR_GEMM_H_
#define MODELSLICING_TENSOR_GEMM_H_

#include <cstdint>
#include <functional>

#include "src/tensor/epilogue.h"

namespace ms {
namespace ops {

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// A is (M x K) after op, B is (K x N) after op, C is (M x N). Leading
/// dimensions may exceed the logical extents (prefix-sliced weights).
/// `epi` (bias / scale-shift / activation) is applied to every output
/// element at C-writeback, bitwise identical to the same per-element
/// post-pass at any thread count (epilogue.h).
/// Large problems run on the process-wide compute pool; calls made from
/// inside any ThreadPool worker or ParallelFor shard run single-threaded
/// (no nested pools).
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, int64_t lda, const float* b,
          int64_t ldb, float beta, float* c, int64_t ldc,
          const Epilogue& epi = {});

/// Scalar reference kernel with identical floating-point semantics to
/// Gemm (see the determinism contract above), then `epi` as a separate
/// scalar post-pass over C. The correctness oracle every fused entry point
/// must match bitwise, and the fallback for tiny problems.
void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, int64_t lda, const float* b,
             int64_t ldb, float beta, float* c, int64_t ldc,
             const Epilogue& epi = {});

/// Threads that run compute shards: the caller plus the pool's workers.
/// Defaults to MS_NUM_THREADS when set, else
/// std::thread::hardware_concurrency(). 1 disables the pool.
int ComputeThreads();

/// Resizes the process-wide compute pool. Not thread-safe with respect to
/// in-flight kernels; intended for startup and tests.
void SetComputeThreads(int n);

/// True when the AVX2/FMA microkernel is compiled in (MS_ENABLE_AVX2) and
/// the CPU supports it at runtime.
bool GemmHasAvx2();

/// Static partition of [0, n) into min(n, ComputeThreads()) shards;
/// fn(begin, end) runs on disjoint ranges. The calling thread runs shard 0
/// and every shard none of the pool's ComputeThreads() - 1 workers has
/// claimed, so it never waits for a worker to wake. Serializes inline when
/// the pool is disabled or the caller is already a pool worker or inside
/// a shard. Layers use this for batch-level parallelism (one conv GEMM per
/// image, GroupNorm and max-pool inference per sample).
void ParallelForCompute(int64_t n,
                        const std::function<void(int64_t, int64_t)>& fn);

}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_GEMM_H_
