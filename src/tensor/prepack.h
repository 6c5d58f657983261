// Prepacked GEMM operands: pack a static matrix (layer weights) into the
// kernel's panel grid ONCE and reuse it across calls, instead of re-packing
// on every Gemm. This is the serving fast path: with batch M <= 8 the
// packing of W dominates the actual FLOPs, and the weight never changes
// between requests.
//
// Rate-sliceable by construction (paper Eq. 1-2): slicing selects a PREFIX
// of ordered groups, i.e. a prefix of op(W)'s rows and/or columns. The
// pack stores op(B) column panels p-major with panel stride k_full, so
//   * a column prefix n <= N is a prefix of whole nr-wide panels plus a
//     column mask on the last partial panel (MergeTile already discards
//     dead lanes), and
//   * a row prefix k <= K is a within-panel row prefix (first k*nr floats
//     of each panel).
// One full-size pack therefore serves EVERY trained slice rate — the same
// share-one-artifact-across-rates trick the paper applies to the weights
// themselves, pushed down into the kernel layout.
//
// Determinism contract: GemmPrepackedB/GemmPrepackedA produce results
// bitwise-equal to Gemm/GemmRef for every transpose flavor, slice prefix,
// and thread count. The panels are byte-identical to the scratch panels
// Gemm packs per call, the compute walk is the same fixed grid, and the
// skinny-M kernel performs the identical per-element contraction.
//
// Invalidation: EnsurePacked{A,B} re-packs when the source pointer, shape,
// leading dimension, transpose flag, or the process-wide weight generation
// changed. Anything that mutates weights (SGD::Step, CopyParams,
// LoadParams, Dense/Conv mutable accessors) bumps the generation, so a
// pack can never silently serve stale weights. In steady-state serving
// nothing bumps, and TotalPackCount() stays flat — the bench and the CI
// smoke job assert exactly that.
//
// Thread-safety: the generation counter and pack statistics are atomics.
// A PackedMatrix itself is NOT internally synchronized — callers must
// Ensure* before handing the pack to parallel readers (layers do this
// before entering ParallelForCompute; serving replicas are single-owner).
#ifndef MODELSLICING_TENSOR_PREPACK_H_
#define MODELSLICING_TENSOR_PREPACK_H_

#include <cstdint>
#include <memory>

#include "src/tensor/cols_view.h"
#include "src/tensor/epilogue.h"

namespace ms {
namespace ops {

class PackedMatrix;

/// Process-wide weight generation. Monotone; compared by EnsurePacked*.
uint64_t WeightGeneration();

/// Marks all existing packs stale. Called by every weight mutator.
void BumpWeightGeneration();

/// A matrix packed into the active microkernel's panel layout. Movable,
/// not copyable; default-constructed state is empty (never matches, first
/// Ensure* packs). The source matrix is identified by pointer — it is a
/// cache key only and is never dereferenced outside Pack*/Ensure*.
class PackedMatrix {
 public:
  PackedMatrix() = default;
  PackedMatrix(PackedMatrix&&) = default;
  PackedMatrix& operator=(PackedMatrix&&) = default;
  PackedMatrix(const PackedMatrix&) = delete;
  PackedMatrix& operator=(const PackedMatrix&) = delete;

  bool empty() const { return role_ == Role::kNone; }
  /// Rows of the packed operand: k for a B pack (op(B) is K x N), m for
  /// an A pack (op(A) is M x K).
  int64_t rows() const { return rows_; }
  /// Columns of the packed operand: n for a B pack, k for an A pack.
  int64_t cols() const { return cols_; }
  /// Weight generation the pack was built at.
  uint64_t generation() const { return generation_; }
  /// Floats held by the pack buffer (panel padding included).
  int64_t packed_floats() const { return packed_floats_; }

 private:
  enum class Role : uint8_t { kNone, kA, kB };

  friend void PackB(bool, int64_t, int64_t, const float*, int64_t,
                    PackedMatrix*);
  friend bool EnsurePackedB(bool, int64_t, int64_t, const float*, int64_t,
                            PackedMatrix*);
  friend void GemmPrepackedB(bool, int64_t, int64_t, int64_t, float,
                             const float*, int64_t, const PackedMatrix&,
                             float, float*, int64_t, const Epilogue&);
  friend void PackA(bool, int64_t, int64_t, const float*, int64_t,
                    PackedMatrix*);
  friend bool EnsurePackedA(bool, int64_t, int64_t, const float*, int64_t,
                            PackedMatrix*);
  friend void GemmPrepackedA(int64_t, int64_t, int64_t, const PackedMatrix&,
                             bool, const float*, int64_t, float, float*,
                             int64_t, const Epilogue&);
  friend void GemmPrepackedA(int64_t, int64_t, const PackedMatrix&,
                             const ColsView&, float, float*, int64_t,
                             const Epilogue&);

  /// 64-byte-aligned buffer of at least `floats` floats (reuses the
  /// existing allocation when large enough).
  float* Reserve(int64_t floats);

  std::unique_ptr<float[]> storage_;
  float* data_ = nullptr;
  int64_t capacity_ = 0;       // floats usable at data_
  int64_t packed_floats_ = 0;  // floats written by the last pack
  Role role_ = Role::kNone;
  bool trans_ = false;         // transpose flag of the packed source
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t ld_ = 0;             // source leading dimension
  int panel_ = 0;              // panel width: nr (B role) or mr (A role)
  const float* src_ = nullptr;
  uint64_t generation_ = 0;
};

// ---------------------------------------------------------------------------
// B-role packs (op(B) is K x N). Weights used as the right operand:
// Dense/LSTM/GRU forward with trans_b, Dense backward-dx without.

/// Packs op(B) (full extents k x n, leading dimension ldb) into `pack`.
/// alpha-independent: alpha is applied to A at GemmPrepackedB time.
void PackB(bool trans_b, int64_t k, int64_t n, const float* b, int64_t ldb,
           PackedMatrix* pack);

/// PackB only if `pack` is empty, keyed differently, or stale (weight
/// generation advanced). Returns true when it (re)packed.
bool EnsurePackedB(bool trans_b, int64_t k, int64_t n, const float* b,
                   int64_t ldb, PackedMatrix* pack);

/// C = alpha * op(A) * Bpack[:k, :n] + beta * C, then `epi` at
/// C-writeback. k/n may be any prefix of the packed extents (slice rates);
/// bitwise-equal to the corresponding Gemm call. Small M runs the skinny
/// kernel — no A packing at all — up to the active kernel's accumulator
/// capacity (4 rows for AVX2, 8 portable); larger M packs only the
/// activation and reuses the panels.
void GemmPrepackedB(bool trans_a, int64_t m, int64_t n, int64_t k,
                    float alpha, const float* a, int64_t lda,
                    const PackedMatrix& bpack, float beta, float* c,
                    int64_t ldc, const Epilogue& epi = {});

// ---------------------------------------------------------------------------
// A-role packs (op(A) is M x K). Weights used as the left operand: conv
// layers multiply W (out_channels x in_channels*k*k) by the im2col matrix
// of their input, read in place (cols_view.h).
// alpha is fixed at 1 (packed panels hold 1*w, exactly what Gemm packs
// for the alpha the conv layers use).

/// Packs op(A) (full extents m x k, leading dimension lda) into `pack`.
void PackA(bool trans_a, int64_t m, int64_t k, const float* a, int64_t lda,
           PackedMatrix* pack);

/// PackA only if `pack` is empty, keyed differently, or stale. Returns
/// true when it (re)packed.
bool EnsurePackedA(bool trans_a, int64_t m, int64_t k, const float* a,
                   int64_t lda, PackedMatrix* pack);

/// C = Apack[:m, :k] * op(B) + beta * C (alpha == 1), then `epi` at
/// C-writeback (conv bias is the per_row case: one value per output
/// channel / C row). m/k may be any prefix of the packed extents;
/// bitwise-equal to the corresponding Gemm.
void GemmPrepackedA(int64_t m, int64_t n, int64_t k,
                    const PackedMatrix& apack, bool trans_b, const float* b,
                    int64_t ldb, float beta, float* c, int64_t ldc,
                    const Epilogue& epi = {});

/// The conv form: C[:m, :b.cols()] = Apack[:m, :k] * B + beta * C, where B
/// (k x b.cols()) is read in place through `b`; `epi` at C-writeback.
/// Bitwise-equal to materialising B and calling the form above: the B
/// panels cover b's wide grid, each panel row one contiguous copy, and
/// the merge drops the columns between output rows.
void GemmPrepackedA(int64_t m, int64_t k, const PackedMatrix& apack,
                    const ColsView& b, float beta, float* c, int64_t ldc,
                    const Epilogue& epi = {});

// ---------------------------------------------------------------------------
// Observability. Process-wide counters over both pack kinds — the fp32
// panels here and the int8 panels of quant.h (relaxed atomics, cheap
// enough for the hot path); PublishPackMetrics snapshots them into the
// global metrics registry for benches / the serving engine.

struct PackStats {
  uint64_t packs = 0;            ///< fp32 Pack*/Ensure* that packed
  uint64_t packed_floats = 0;    ///< floats written by those packs
  uint64_t hits = 0;             ///< fp32 Ensure* calls satisfied by cache
  uint64_t prepacked_calls = 0;  ///< GemmPrepacked{A,B} invocations
  uint64_t quant_packs = 0;         ///< QuantizePackB/Ensure* that packed
  uint64_t quant_packed_bytes = 0;  ///< quantized bytes written by those
  uint64_t quant_hits = 0;          ///< EnsureQuantizedB cache hits
  uint64_t quantized_calls = 0;     ///< GemmQuantized{B,WeightA} calls
};

PackStats GetPackStats();

/// Test hook (like ScratchArena::TotalBlockAllocs): total fp32 plus int8
/// packs performed by this process. Steady-state serving must keep it
/// flat.
uint64_t TotalPackCount();

/// Sets gauges ms_gemm_pack_count / ms_gemm_pack_bytes / ms_gemm_pack_hits
/// / ms_gemm_prepacked_calls (fp32) and ms_quant_pack_count /
/// ms_quant_pack_bytes / ms_quant_pack_hits / ms_quant_gemm_calls (int8)
/// in obs::MetricsRegistry::Global().
void PublishPackMetrics();

}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_PREPACK_H_
