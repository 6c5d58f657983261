// LSTM layer with model slicing over inputs, hidden units and all four gates
// (paper Sec. 3.3): one slice rate regulates every input/output set.
#ifndef MODELSLICING_NN_LSTM_H_
#define MODELSLICING_NN_LSTM_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/nn/sliced_matmul.h"
#include "src/util/rng.h"

namespace ms {

struct LstmOptions {
  int64_t input_size = 0;
  int64_t hidden_size = 0;
  int64_t groups = 1;
  bool slice_in = true;
  bool slice_out = true;
  /// Rescale the input and recurrent contributions by full/active fan-in so
  /// gate pre-activations keep their scale across slice rates.
  bool rescale = true;
};

/// \brief Single-layer LSTM over a (T, B, input) sequence; returns the
/// (T, B, hidden) hidden-state sequence. All gate blocks [i, f, g, o] are
/// sliced to the same active prefix of hidden units.
class Lstm : public Module {
 public:
  Lstm(LstmOptions opts, Rng* rng, std::string name = "lstm");

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
  // Activated gate z = act(rescale_x * Wx[gate] x + rescale_h * Wh[gate] h
  // + b): the recurrent GEMM's epilogue adds the gate bias and applies the
  // gate nonlinearity (sigmoid for i/f/o, tanh for g).
  void GateGemm(int gate, const float* x, const float* h, int64_t batch,
                float* z) const;

  LstmOptions opts_;
  std::string name_;
  SliceSpec in_spec_;
  SliceSpec hidden_spec_;
  int64_t active_in_ = 0;
  int64_t active_hidden_ = 0;
  float rescale_x_ = 1.0f;
  float rescale_h_ = 1.0f;

  Tensor wx_;  ///< (4 * hidden, input): gate blocks stacked [i, f, g, o].
  Tensor wh_;  ///< (4 * hidden, hidden)
  Tensor b_;   ///< (4 * hidden)
  Tensor wx_grad_, wh_grad_, b_grad_;

  // One operator per gate block, because the stacked [i,f,g,o] rows are
  // not a slice prefix of the full matrix. K segments sit on the input /
  // hidden slice-group boundaries. The recurrent packs are the biggest
  // win: they are reused across all T timesteps.
  SlicedMatmul wx_mm_[4], wh_mm_[4];

  // Per-timestep caches from the last Forward (compact widths).
  struct StepCache {
    Tensor i, f, g, o;     ///< gate activations, (B, n) each
    Tensor c, tanh_c, h;   ///< cell, tanh(cell), hidden
  };
  std::vector<StepCache> steps_;
  Tensor cached_x_;
  int64_t cached_t_ = 0;
  int64_t cached_b_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_LSTM_H_
