// Dense row-major float tensor. The single data container used throughout
// the library: model parameters, activations, gradients and datasets.
#ifndef MODELSLICING_TENSOR_TENSOR_H_
#define MODELSLICING_TENSOR_TENSOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace ms {

/// \brief N-dimensional row-major float32 tensor with value semantics.
///
/// Kept deliberately simple: contiguous storage, explicit shape, no views or
/// broadcasting machinery. Layers slice by operating on index prefixes
/// (contiguous groups), which maps directly onto row-major layout.
///
/// Storage comes from the heap. Copy assignment reuses the existing buffer
/// whenever the capacity suffices. Every buffer is counted in a
/// process-wide live-byte total with a high-water mark (LiveBytes /
/// PeakLiveBytes), which is how the activation footprint of one forward at
/// a given slice rate is measured.
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<int64_t> shape) {
    shape_ = std::move(shape);
    Allocate(NumElements(shape_));
    if (size_ > 0) {
      fill_events_.fetch_add(1, std::memory_order_relaxed);
      std::fill(data(), data() + size_, 0.0f);
    }
  }

  Tensor(std::initializer_list<int64_t> shape)
      : Tensor(std::vector<int64_t>(shape)) {}

  ~Tensor() { Release(); }

  Tensor(const Tensor& other) { CopyFrom(other); }

  Tensor& operator=(const Tensor& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        data_(std::move(other.data_)),
        size_(other.size_),
        cap_(other.cap_) {
    other.size_ = 0;
    other.cap_ = 0;
    other.shape_.clear();
  }

  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      Release();
      shape_ = std::move(other.shape_);
      data_ = std::move(other.data_);
      size_ = other.size_;
      cap_ = other.cap_;
      other.size_ = 0;
      other.cap_ = 0;
      other.shape_.clear();
    }
    return *this;
  }

  /// A tensor whose contents are NOT initialized — for outputs every
  /// element of which the producing kernel overwrites (fused GEMM
  /// epilogues write the whole C), killing the zero-fill pass.
  static Tensor Uninit(std::vector<int64_t> shape) {
    Tensor t;
    t.shape_ = std::move(shape);
    t.Allocate(NumElements(t.shape_));
    return t;
  }

  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> values) {
    MS_CHECK(NumElements(shape) == static_cast<int64_t>(values.size()));
    Tensor t = Uninit(std::move(shape));
    std::copy(values.begin(), values.end(), t.data());
    return t;
  }

  static Tensor Zeros(std::vector<int64_t> shape) {
    return Tensor(std::move(shape));
  }

  static Tensor Full(std::vector<int64_t> shape, float value) {
    Tensor t = Uninit(std::move(shape));
    t.Fill(value);
    return t;
  }

  static Tensor Randn(std::vector<int64_t> shape, Rng* rng,
                      float stddev = 1.0f) {
    Tensor t = Uninit(std::move(shape));
    for (int64_t i = 0; i < t.size_; ++i) {
      t.data_[i] = static_cast<float>(rng->Gaussian(0.0, stddev));
    }
    return t;
  }

  static Tensor RandUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                            float hi) {
    Tensor t = Uninit(std::move(shape));
    for (int64_t i = 0; i < t.size_; ++i) {
      t.data_[i] = static_cast<float>(rng->Uniform(lo, hi));
    }
    return t;
  }

  static int64_t NumElements(const std::vector<int64_t>& shape) {
    int64_t n = 1;
    for (int64_t d : shape) {
      MS_CHECK(d >= 0);
      n *= d;
    }
    return n;
  }

  const std::vector<int64_t>& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const {
    MS_CHECK(i >= 0 && i < ndim());
    return shape_[static_cast<size_t>(i)];
  }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float& at(int64_t i) {
    MS_CHECK(i >= 0 && i < size());
    return data_[i];
  }
  float at(int64_t i) const {
    MS_CHECK(i >= 0 && i < size());
    return data_[i];
  }

  /// Unchecked flat accessors for hot loops.
  float& operator[](int64_t i) { return data_[i]; }
  float operator[](int64_t i) const { return data_[i]; }

  /// 2-D accessor (row, col) for matrices.
  float& at2(int64_t r, int64_t c) { return data_[r * shape_[1] + c]; }
  float at2(int64_t r, int64_t c) const { return data_[r * shape_[1] + c]; }

  void Fill(float value) {
    if (size_ > 0) fill_events_.fetch_add(1, std::memory_order_relaxed);
    std::fill(data(), data() + size_, value);
  }
  void Zero() { Fill(0.0f); }

  /// Reinterpret with a new shape of identical element count.
  Tensor Reshaped(std::vector<int64_t> new_shape) const {
    MS_CHECK(NumElements(new_shape) == size());
    Tensor t(*this);
    t.shape_ = std::move(new_shape);
    return t;
  }

  /// In-place reshape (no data movement).
  void Reshape(std::vector<int64_t> new_shape) {
    MS_CHECK(NumElements(new_shape) == size());
    shape_ = std::move(new_shape);
  }

  /// Take on `shape`, reallocating only when the element count grows past
  /// the current capacity. Existing values are NOT preserved and the new
  /// contents are unspecified — callers overwrite everything (that is the
  /// point: per-step caches like the RNN StepCache reuse their buffers
  /// across iterations with neither heap churn nor a redundant zero-fill;
  /// TotalFillEvents() is the hook the regression test watches).
  void EnsureShape(std::vector<int64_t> shape) {
    const int64_t n = NumElements(shape);
    shape_ = std::move(shape);
    if (n > cap_) {
      Release();
      Allocate(n);
    } else {
      size_ = n;
    }
  }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string ShapeString() const {
    std::string s = "[";
    for (size_t i = 0; i < shape_.size(); ++i) {
      if (i > 0) s += ", ";
      s += std::to_string(shape_[i]);
    }
    return s + "]";
  }

  /// Process-wide count of whole-buffer fills (zeroing constructions plus
  /// Fill/Zero calls). Steady-state fully-overwritten paths must keep it
  /// flat; scratch_test.cc asserts exactly that.
  static uint64_t TotalFillEvents() {
    return fill_events_.load(std::memory_order_relaxed);
  }

  /// Process-wide bytes of tensor storage currently allocated, and its
  /// high-water mark since the last ResetPeakLiveBytes(). The activation
  /// footprint of one forward is PeakLiveBytes() after a reset, minus the
  /// LiveBytes() before the call. Relaxed counters: exact when one thread
  /// allocates, a close approximation when several do.
  static int64_t LiveBytes() {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  static int64_t PeakLiveBytes() {
    return peak_live_bytes_.load(std::memory_order_relaxed);
  }
  static void ResetPeakLiveBytes() {
    peak_live_bytes_.store(LiveBytes(), std::memory_order_relaxed);
  }

 private:
  /// Binds fresh heap storage of `n` floats. Contents unspecified.
  void Allocate(int64_t n) {
    if (n > 0) {
      data_ = std::make_unique_for_overwrite<float[]>(static_cast<size_t>(n));
      const int64_t live =
          live_bytes_.fetch_add(Bytes(n), std::memory_order_relaxed) +
          Bytes(n);
      int64_t peak = peak_live_bytes_.load(std::memory_order_relaxed);
      while (live > peak &&
             !peak_live_bytes_.compare_exchange_weak(
                 peak, live, std::memory_order_relaxed)) {
      }
    }
    size_ = n;
    cap_ = n;
  }

  void Release() {
    if (data_ != nullptr) {
      live_bytes_.fetch_sub(Bytes(cap_), std::memory_order_relaxed);
    }
    data_.reset();
    size_ = 0;
    cap_ = 0;
  }

  void CopyFrom(const Tensor& other) {
    if (other.size_ > cap_) {
      Release();
      Allocate(other.size_);
    } else {
      size_ = other.size_;
    }
    shape_ = other.shape_;
    if (size_ > 0) std::copy(other.data(), other.data() + size_, data());
  }

  static int64_t Bytes(int64_t floats) {
    return floats * static_cast<int64_t>(sizeof(float));
  }

  static inline std::atomic<uint64_t> fill_events_{0};
  static inline std::atomic<int64_t> live_bytes_{0};
  static inline std::atomic<int64_t> peak_live_bytes_{0};

  std::vector<int64_t> shape_;
  std::unique_ptr<float[]> data_;  // null when empty
  int64_t size_ = 0;
  int64_t cap_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_TENSOR_TENSOR_H_
