// GRU layer with model slicing (paper Sec. 3.3: "Model slicing for
// recurrent layers of RNN variants such as GRU and LSTM works similarly").
// All gate blocks [r, z, n] are sliced to the same active prefix of hidden
// units, regulated by the network-wide slice rate.
#ifndef MODELSLICING_NN_GRU_H_
#define MODELSLICING_NN_GRU_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/nn/sliced_matmul.h"
#include "src/util/rng.h"

namespace ms {

struct GruOptions {
  int64_t input_size = 0;
  int64_t hidden_size = 0;
  int64_t groups = 1;
  bool slice_in = true;
  bool slice_out = true;
  bool rescale = true;  ///< full/active fan-in rescaling, as in Lstm.
};

/// \brief Single-layer GRU over a (T, B, input) sequence; returns the
/// (T, B, hidden) hidden-state sequence.
///
/// Gate equations (PyTorch convention, separate input/hidden biases):
///   r = sigmoid(Wr x + br_x + Ur h + br_h)
///   z = sigmoid(Wz x + bz_x + Uz h + bz_h)
///   n = tanh  (Wn x + bn_x + r * (Un h + bn_h))
///   h' = (1 - z) * n + z * h
class Gru : public Module {
 public:
  Gru(GruOptions opts, Rng* rng, std::string name = "gru");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t FlopsPerSample() const override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

  int64_t active_in() const { return active_in_; }
  int64_t active_hidden() const { return active_hidden_; }

 private:
  // z_out(B, n) = rescale * in * W[gate]^T + b[gate]: the input (wx, bx)
  // or hidden (wh, bh) contribution, bias added in the GEMM epilogue. The
  // gate nonlinearities act on xr + hr *sums*, so they cannot fuse
  // per-GEMM.
  void GateGemm(const SlicedMatmul& mm, const Tensor& bias, int gate,
                int64_t k, float rescale, const float* in, int64_t batch,
                float* z) const;

  GruOptions opts_;
  std::string name_;
  SliceSpec in_spec_;
  SliceSpec hidden_spec_;
  int64_t active_in_ = 0;
  int64_t active_hidden_ = 0;
  float rescale_x_ = 1.0f;
  float rescale_h_ = 1.0f;

  Tensor wx_;  ///< (3 * hidden, input): gate blocks [r, z, n].
  Tensor wh_;  ///< (3 * hidden, hidden)
  Tensor bx_;  ///< (3 * hidden)
  Tensor bh_;  ///< (3 * hidden)
  Tensor wx_grad_, wh_grad_, bx_grad_, bh_grad_;

  // One operator per gate block (see Lstm); K segments sit on the input
  // / hidden slice-group boundaries, and the recurrent packs amortize over
  // all T.
  SlicedMatmul wx_mm_[3], wh_mm_[3];

  struct StepCache {
    Tensor r, z, n;   ///< gate activations, (B, active_hidden) each
    Tensor hn;        ///< Un h + bn_h (pre r-multiplication)
    Tensor h;         ///< output hidden state
  };
  std::vector<StepCache> steps_;
  Tensor cached_x_;
  int64_t cached_t_ = 0;
  int64_t cached_b_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_GRU_H_
