// Fused GEMM epilogue descriptor. Every packed/prepacked/quantized GEMM
// entry point takes an optional Epilogue (default: empty); the descriptor
// is applied to each output element exactly once, at C-writeback time (the
// merge of the final accumulator tile), while the tile is still hot.
//
// Bitwise contract: because every kernel flavor contracts the full k
// extent before its single merge into C, the epilogue is a deterministic
// per-element function of the final merged value. Applying it at merge
// time is therefore bitwise identical to a separate post-pass over C —
// which is exactly how the reference oracle (GemmRef) implements it —
// at any thread count, for every kernel flavor, and for any beta. The
// scalar op order is fixed: bias add, then scale-shift (separate mul and
// add; the TUs applying it build with -ffp-contract=off), then the
// activation. ReLU is `v > 0 ? v : 0` (NaN and -0.0 map to +0.0);
// sigmoid/tanh are the libm forms the unfused layer loops use.
#ifndef MODELSLICING_TENSOR_EPILOGUE_H_
#define MODELSLICING_TENSOR_EPILOGUE_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace ms {
namespace ops {

enum class EpiAct : uint8_t { kNone = 0, kRelu, kSigmoid, kTanh };

/// Per-element epilogue applied to C after the beta merge. The index into
/// bias/scale/shift is the C row (per_row) or the C column; vectors must
/// cover the full logical extent of that dimension and must not alias C
/// (the merge loops rely on this to vectorize).
struct Epilogue {
  const float* bias = nullptr;   ///< v += bias[idx]
  const float* scale = nullptr;  ///< v = v * scale[idx] + shift[idx]
  const float* shift = nullptr;  ///< must be set iff scale is set
  bool per_row = false;          ///< index by C row i instead of column j
  EpiAct act = EpiAct::kNone;    ///< applied last

  bool empty() const {
    return bias == nullptr && scale == nullptr && act == EpiAct::kNone;
  }
};

namespace detail {

/// The shared scalar activation forms. Standalone activation passes (the
/// norms' fused sweep, the RNN pointwise loops) call these same inlines,
/// so fused == unfused holds bitwise by construction.
inline float EpiRelu(float v) {
  // Branchless form of `v > 0.0f ? v : 0.0f` (same value for every input,
  // including NaN -> +0.0 and -0.0 -> +0.0). Post-GEMM activations are
  // zero-centered, so the naive ternary compiles to a ~50%-mispredicted
  // branch per element in scalar loops; the mask select costs a fixed
  // handful of cycles instead and vectorizes cleanly.
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits &= -static_cast<uint32_t>(v > 0.0f);
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
inline float EpiSigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }
inline float EpiTanh(float v) { return std::tanh(v); }

inline float EpiActApply(EpiAct act, float v) {
  switch (act) {
    case EpiAct::kRelu:
      return EpiRelu(v);
    case EpiAct::kSigmoid:
      return EpiSigmoid(v);
    case EpiAct::kTanh:
      return EpiTanh(v);
    case EpiAct::kNone:
      break;
  }
  return v;
}

/// One element at logical C position (i, j). NOTE: the scale-shift is a
/// contractible mul+add — only call this from a TU compiled with
/// -ffp-contract=off (the whole library, and the fusion test).
inline float EpiApply(const Epilogue& e, int64_t i, int64_t j, float v) {
  const int64_t idx = e.per_row ? i : j;
  if (e.bias != nullptr) v += e.bias[idx];
  if (e.scale != nullptr) v = v * e.scale[idx] + e.shift[idx];
  return EpiActApply(e.act, v);
}

/// Compile-time-act variant of EpiActApply: identical scalar forms, but
/// the switch is resolved at instantiation so row loops stay branch-free.
template <EpiAct Act>
inline float EpiActApplyCT(float v) {
  if constexpr (Act == EpiAct::kRelu) return EpiRelu(v);
  if constexpr (Act == EpiAct::kSigmoid) return EpiSigmoid(v);
  if constexpr (Act == EpiAct::kTanh) return EpiTanh(v);
  return v;
}

// Row-segment epilogue: the same per-element op sequence as EpiApply
// (bias, scale-shift, act), specialized per configuration so the hot
// loops carry no per-element branches and the add/mul/max cases
// autovectorize at -O2. Per-element order is unchanged, so applying the
// plain merge first and then one of these over the still-hot row is
// bitwise identical to the fully-scalar EpiApply path.

/// Column-indexed (per_row == false): vectors advance with j.
template <bool kBias, bool kScale, EpiAct Act>
inline void EpiRowCols(const Epilogue& e, int64_t j0, int64_t cols,
                       float* v) {
  const float* bias = kBias ? e.bias + j0 : nullptr;
  const float* scale = kScale ? e.scale + j0 : nullptr;
  const float* shift = kScale ? e.shift + j0 : nullptr;
  for (int64_t j = 0; j < cols; ++j) {
    float x = v[j];
    if constexpr (kBias) x += bias[j];
    if constexpr (kScale) x = x * scale[j] + shift[j];
    v[j] = EpiActApplyCT<Act>(x);
  }
}

/// Row-indexed (per_row == true): one broadcast value per C row.
template <bool kBias, bool kScale, EpiAct Act>
inline void EpiRowConst(const Epilogue& e, int64_t i, int64_t cols,
                        float* v) {
  const float bias = kBias ? e.bias[i] : 0.0f;
  const float scale = kScale ? e.scale[i] : 0.0f;
  const float shift = kScale ? e.shift[i] : 0.0f;
  for (int64_t j = 0; j < cols; ++j) {
    float x = v[j];
    if constexpr (kBias) x += bias;
    if constexpr (kScale) x = x * scale + shift;
    v[j] = EpiActApplyCT<Act>(x);
  }
}

template <bool kBias, bool kScale, EpiAct Act>
inline void EpiRowBody(const Epilogue& e, int64_t i, int64_t j0,
                       int64_t cols, float* v) {
  if (e.per_row) {
    EpiRowConst<kBias, kScale, Act>(e, i, cols, v);
  } else {
    EpiRowCols<kBias, kScale, Act>(e, j0, cols, v);
  }
}

template <bool kBias, bool kScale>
inline void EpiRowDispatchAct(const Epilogue& e, int64_t i, int64_t j0,
                              int64_t cols, float* v) {
  switch (e.act) {
    case EpiAct::kRelu:
      EpiRowBody<kBias, kScale, EpiAct::kRelu>(e, i, j0, cols, v);
      break;
    case EpiAct::kSigmoid:
      EpiRowBody<kBias, kScale, EpiAct::kSigmoid>(e, i, j0, cols, v);
      break;
    case EpiAct::kTanh:
      EpiRowBody<kBias, kScale, EpiAct::kTanh>(e, i, j0, cols, v);
      break;
    case EpiAct::kNone:
      EpiRowBody<kBias, kScale, EpiAct::kNone>(e, i, j0, cols, v);
      break;
  }
}

/// Applies the epilogue in place to C row i, columns [j0, j0 + cols).
/// Bitwise equal to EpiApply on each element; one dispatch per row.
/// Same contraction caveat as EpiApply: contract-off TUs only.
inline void EpiApplyRow(const Epilogue& e, int64_t i, int64_t j0,
                        int64_t cols, float* v) {
  const int cfg =
      (e.bias != nullptr ? 1 : 0) | (e.scale != nullptr ? 2 : 0);
  switch (cfg) {
    case 0:
      EpiRowDispatchAct<false, false>(e, i, j0, cols, v);
      break;
    case 1:
      EpiRowDispatchAct<true, false>(e, i, j0, cols, v);
      break;
    case 2:
      EpiRowDispatchAct<false, true>(e, i, j0, cols, v);
      break;
    default:
      EpiRowDispatchAct<true, true>(e, i, j0, cols, v);
      break;
  }
}

}  // namespace detail

}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_EPILOGUE_H_
