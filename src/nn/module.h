// Base class for neural-network layers with manual backprop and dynamic
// width slicing. Activations flowing between layers are *compact*: a layer
// sliced to m of M input channels receives a tensor whose channel dimension
// is m, exactly mirroring the paper's claim that only active components
// reside in memory / participate in computation.
#ifndef MODELSLICING_NN_MODULE_H_
#define MODELSLICING_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"

namespace ms {

/// \brief A named (parameter, gradient) pair exposed to optimizers.
///
/// Parameters and gradients are always full-size; a sliced forward/backward
/// touches only the active prefix, leaving the rest of the gradient zero —
/// which is exactly Algorithm 1's accumulation semantics.
struct ParamRef {
  std::string name;
  Tensor* param = nullptr;
  Tensor* grad = nullptr;
  /// Parameters flagged no_decay (biases, norm scales) skip weight decay.
  bool no_decay = false;
};

/// \brief Abstract layer: forward, backward, parameters, slicing.
///
/// The public entry points are non-virtual (NVI): they hook into the
/// observability subsystem (per-layer/per-rate profiling via
/// obs::SliceProfiler, spans via obs::TraceCollector) before dispatching to
/// the Do* virtuals that layers override. With no profiler active and
/// tracing disabled the hooks cost two relaxed atomic loads.
class Module {
 public:
  Module() = default;
  // Layers hand out views of their own members (SlicedMatmul holds a
  // pointer to its weight tensor), so a module never changes address.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Compute the layer output. `training` toggles dropout / batch-stat
  /// collection. Input/output are compact w.r.t. the current slice rate.
  Tensor Forward(const Tensor& x, bool training);

  /// Given dL/d(output), accumulate parameter gradients (into the active
  /// prefix) and return dL/d(input). The last Forward must have been a
  /// training-mode one at the same slice rate: only it caches what
  /// backward needs (inference forwards keep no backward state), and a
  /// Backward after an inference Forward dies.
  Tensor Backward(const Tensor& grad_out);

  /// Set the current slice rate r in (0, 1]. Non-sliceable layers ignore it.
  void SetSliceRate(double r);

  /// Set the inference precision: the second elastic axis, orthogonal to
  /// the slice rate. Int8 affects DoForward only (inference-time weight +
  /// dynamic activation quantization; Backward always runs fp32); layers
  /// without a quantized path ignore it. Containers propagate to children.
  void SetPrecision(Precision p);
  Precision precision() const { return precision_; }

  /// Append this layer's parameters (if any).
  virtual void CollectParams(std::vector<ParamRef>* out) { (void)out; }

  /// Multiply-accumulate count for one sample at the current slice rate.
  virtual int64_t FlopsPerSample() const { return 0; }

  /// Number of parameters touched at the current slice rate.
  virtual int64_t ActiveParams() const { return 0; }

  /// True when an inference forward may skip this layer entirely because a
  /// preceding layer absorbed its work (an activation fused into the
  /// producing GEMM's epilogue — see nn/fusion.h). Containers consult it
  /// per child; training forwards never skip.
  virtual bool BypassedAtInference() const { return false; }

  virtual std::string name() const = 0;

 protected:
  /// Layer implementations; see the public Forward/Backward/SetSliceRate.
  virtual Tensor DoForward(const Tensor& x, bool training) = 0;
  virtual Tensor DoBackward(const Tensor& grad_out) = 0;
  virtual void DoSetSliceRate(double r) { (void)r; }
  virtual void DoSetPrecision(Precision p) { (void)p; }

  /// Current precision for DoForward implementations.
  Precision precision_ = Precision::kFp32;

 private:
  bool last_forward_training_ = false;  ///< checked by Backward
};

/// \brief Runs child modules in order; the workhorse container for CNN/MLP
/// models.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  Sequential* Add(std::unique_ptr<Module> m) {
    children_.push_back(std::move(m));
    return this;
  }

  template <typename T, typename... Args>
  T* Emplace(Args&&... args) {
    auto m = std::make_unique<T>(std::forward<Args>(args)...);
    T* ptr = m.get();
    children_.push_back(std::move(m));
    return ptr;
  }

  void CollectParams(std::vector<ParamRef>* out) override {
    for (auto& child : children_) child->CollectParams(out);
  }

  int64_t FlopsPerSample() const override {
    int64_t total = 0;
    for (const auto& child : children_) total += child->FlopsPerSample();
    return total;
  }

  int64_t ActiveParams() const override {
    int64_t total = 0;
    for (const auto& child : children_) total += child->ActiveParams();
    return total;
  }

  size_t size() const { return children_.size(); }
  Module* child(size_t i) { return children_[i].get(); }

  std::string name() const override { return name_; }

 protected:
  Tensor DoForward(const Tensor& x, bool training) override {
    // The first child reads x itself; Tensor's copy is deep, so only a
    // Sequential in which no child runs pays for one.
    const Tensor* in = &x;
    Tensor h;
    for (auto& child : children_) {
      if (!training && child->BypassedAtInference()) continue;
      h = child->Forward(*in, training);
      in = &h;
    }
    if (in == &x) return x;
    return h;
  }

  Tensor DoBackward(const Tensor& grad_out) override {
    Tensor g = grad_out;
    for (size_t i = children_.size(); i-- > 0;) {
      g = children_[i]->Backward(g);
    }
    return g;
  }

  void DoSetSliceRate(double r) override {
    for (auto& child : children_) child->SetSliceRate(r);
  }

  void DoSetPrecision(Precision p) override {
    for (auto& child : children_) child->SetPrecision(p);
  }

 private:
  std::string name_ = "sequential";
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace ms

#endif  // MODELSLICING_NN_MODULE_H_
