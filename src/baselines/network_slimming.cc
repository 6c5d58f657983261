#include "src/baselines/network_slimming.h"

#include <algorithm>
#include <cmath>

#include "src/core/cost_model.h"
#include "src/core/evaluator.h"
#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/loss.h"
#include "src/nn/norm.h"
#include "src/nn/pooling.h"
#include "src/optim/sgd.h"

namespace ms {

void TrainWithGammaL1(Sequential* net, const ImageDataset& data,
                      const ImageTrainOptions& opts, double l1_lambda) {
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  Sgd optimizer(params, opts.sgd);
  StepLrSchedule lr_schedule(opts.sgd.lr, opts.lr_milestones);
  Rng rng(opts.seed);
  SoftmaxCrossEntropy loss;

  // Locate the BN scale parameters once.
  std::vector<BatchNorm*> norms;
  for (size_t i = 0; i < net->size(); ++i) {
    if (auto* bn = dynamic_cast<BatchNorm*>(net->child(i))) {
      norms.push_back(bn);
    }
  }

  std::vector<int64_t> order(static_cast<size_t>(data.size()));
  for (int64_t i = 0; i < data.size(); ++i) order[static_cast<size_t>(i)] = i;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    optimizer.set_lr(lr_schedule.LrAtEpoch(epoch));
    rng.Shuffle(&order);
    std::vector<int64_t> indices;
    std::vector<int> labels;
    for (int64_t start = 0; start < data.size(); start += opts.batch_size) {
      const int64_t end = std::min(data.size(), start + opts.batch_size);
      indices.assign(order.begin() + start, order.begin() + end);
      Tensor x = GatherImages(data, indices);
      GatherLabels(data, indices, &labels);
      if (opts.augment) AugmentBatch(&x, opts.max_shift, &rng);

      net->SetSliceRate(1.0);
      Tensor logits = net->Forward(x, /*training=*/true);
      loss.Forward(logits, labels);
      net->Backward(loss.Backward());
      // L1 sub-gradient on every γ.
      for (BatchNorm* bn : norms) {
        Tensor* gamma = bn->mutable_gamma();
        Tensor* grad = bn->mutable_gamma_grad();
        for (int64_t c = 0; c < gamma->size(); ++c) {
          (*grad)[c] += static_cast<float>(
              l1_lambda * ((*gamma)[c] > 0.0f ? 1.0 : -1.0));
        }
      }
      optimizer.Step();
    }
  }
}

namespace {

// Gathered copy of conv weights: keep rows `out_keep` and, within each row,
// the k*k blocks of the input channels in `in_keep`.
void GatherConvWeights(const Conv2d& src, const std::vector<int64_t>& in_keep,
                       const std::vector<int64_t>& out_keep, Conv2d* dst) {
  const int64_t k = src.options().kernel;
  const int64_t kk = k * k;
  const int64_t src_row = src.options().in_channels * kk;
  const int64_t dst_row = static_cast<int64_t>(in_keep.size()) * kk;
  const Tensor& w = src.weight();
  Tensor* out = dst->mutable_weight();
  MS_CHECK(out->size() ==
           static_cast<int64_t>(out_keep.size()) * dst_row);
  for (size_t oo = 0; oo < out_keep.size(); ++oo) {
    const float* srow = w.data() + out_keep[oo] * src_row;
    float* drow = out->data() + static_cast<int64_t>(oo) * dst_row;
    for (size_t ii = 0; ii < in_keep.size(); ++ii) {
      std::copy(srow + in_keep[ii] * kk, srow + (in_keep[ii] + 1) * kk,
                drow + static_cast<int64_t>(ii) * kk);
    }
  }
}

void GatherBnParams(const BatchNorm& src, const std::vector<int64_t>& keep,
                    BatchNorm* dst) {
  for (size_t i = 0; i < keep.size(); ++i) {
    const int64_t c = keep[i];
    (*dst->mutable_gamma())[static_cast<int64_t>(i)] = src.gamma()[c];
    (*dst->mutable_beta())[static_cast<int64_t>(i)] = src.beta()[c];
    (*dst->mutable_running_mean())[static_cast<int64_t>(i)] =
        src.running_mean()[c];
    (*dst->mutable_running_var())[static_cast<int64_t>(i)] =
        src.running_var()[c];
  }
}

}  // namespace

Result<SlimmingResult> RunNetworkSlimming(const SlimmingOptions& opts,
                                          const ImageDataset& train,
                                          const ImageDataset& test) {
  if (opts.prune_fraction < 0.0 || opts.prune_fraction >= 1.0) {
    return Status::InvalidArgument("prune fraction must be in [0, 1)");
  }
  if (opts.l1_lambda < 0.0) {
    return Status::InvalidArgument("l1 lambda must be >= 0");
  }
  CnnConfig config = opts.base;
  config.norm = NormKind::kBatch;
  auto net_result = MakeVggSmall(config);
  MS_RETURN_NOT_OK(net_result.status());
  std::unique_ptr<Sequential> net = net_result.MoveValueOrDie();

  // Stage 1: sparsity-inducing training.
  TrainWithGammaL1(net.get(), train, opts.pretrain, opts.l1_lambda);

  // Stage 2: global threshold over all |γ|.
  std::vector<float> all_gammas;
  for (size_t i = 0; i < net->size(); ++i) {
    if (auto* bn = dynamic_cast<BatchNorm*>(net->child(i))) {
      for (int64_t c = 0; c < bn->gamma().size(); ++c) {
        all_gammas.push_back(std::abs(bn->gamma()[c]));
      }
    }
  }
  MS_CHECK(!all_gammas.empty());
  std::sort(all_gammas.begin(), all_gammas.end());
  const size_t cut = std::min(
      all_gammas.size() - 1,
      static_cast<size_t>(opts.prune_fraction *
                          static_cast<double>(all_gammas.size())));
  const float threshold = all_gammas[cut];

  // Stage 3: rebuild a compact network following the original layer order.
  Rng rebuild_rng(config.seed + 1);
  auto pruned = std::make_unique<Sequential>("vgg_slimmed");
  std::vector<int64_t> in_keep;  // surviving channels of the previous layer.
  for (int64_t c = 0; c < config.in_channels; ++c) in_keep.push_back(c);

  SlimmingResult result;
  Conv2d* pending_conv = nullptr;
  for (size_t i = 0; i < net->size(); ++i) {
    Module* child = net->child(i);
    // A grouped or depthwise conv is an unsupported layer, as below.
    if (auto* conv = dynamic_cast<Conv2d*>(child);
        conv != nullptr && conv->options().branches == 1) {
      MS_CHECK_MSG(pending_conv == nullptr, "conv without following norm");
      pending_conv = conv;
      continue;
    }
    if (auto* bn = dynamic_cast<BatchNorm*>(child)) {
      MS_CHECK_MSG(pending_conv != nullptr, "norm without preceding conv");
      // Surviving output channels of the pending conv (keep at least one).
      std::vector<int64_t> out_keep;
      for (int64_t c = 0; c < bn->gamma().size(); ++c) {
        if (std::abs(bn->gamma()[c]) > threshold) out_keep.push_back(c);
      }
      if (out_keep.empty()) {
        int64_t best = 0;
        for (int64_t c = 1; c < bn->gamma().size(); ++c) {
          if (std::abs(bn->gamma()[c]) > std::abs(bn->gamma()[best])) {
            best = c;
          }
        }
        out_keep.push_back(best);
      }
      result.kept_per_layer.push_back(
          static_cast<int64_t>(out_keep.size()));

      Conv2dOptions copts = pending_conv->options();
      copts.in_channels = static_cast<int64_t>(in_keep.size());
      copts.out_channels = static_cast<int64_t>(out_keep.size());
      copts.slice_in = false;
      copts.slice_out = false;
      copts.groups = 1;
      auto* new_conv = pruned->Emplace<Conv2d>(copts, &rebuild_rng,
                                               pending_conv->name());
      GatherConvWeights(*pending_conv, in_keep, out_keep, new_conv);

      NormOptions nopts;
      nopts.channels = static_cast<int64_t>(out_keep.size());
      nopts.groups = 1;
      nopts.slice = false;
      auto* new_bn = pruned->Emplace<BatchNorm>(nopts, bn->name());
      GatherBnParams(*bn, out_keep, new_bn);

      in_keep = out_keep;
      pending_conv = nullptr;
      continue;
    }
    if (dynamic_cast<ReLU*>(child) != nullptr) {
      pruned->Emplace<ReLU>();
      continue;
    }
    if (dynamic_cast<MaxPool2d*>(child) != nullptr) {
      pruned->Emplace<MaxPool2d>(2, 2);
      continue;
    }
    if (dynamic_cast<GlobalAvgPool*>(child) != nullptr) {
      pruned->Emplace<GlobalAvgPool>();
      continue;
    }
    if (auto* dense = dynamic_cast<Dense*>(child)) {
      DenseOptions dopts = dense->options();
      dopts.in_features = static_cast<int64_t>(in_keep.size());
      dopts.slice_in = false;
      dopts.slice_out = false;
      dopts.rescale = false;
      dopts.groups = 1;
      auto* new_dense =
          pruned->Emplace<Dense>(dopts, &rebuild_rng, dense->name());
      // Gather input columns of the classifier.
      const Tensor& w = dense->weight();
      Tensor* nw = new_dense->mutable_weight();
      for (int64_t o = 0; o < dopts.out_features; ++o) {
        for (size_t ii = 0; ii < in_keep.size(); ++ii) {
          nw->at2(o, static_cast<int64_t>(ii)) = w.at2(o, in_keep[ii]);
        }
      }
      if (dopts.bias) {
        for (int64_t o = 0; o < dopts.out_features; ++o) {
          (*new_dense->mutable_bias())[o] = dense->bias()[o];
        }
      }
      continue;
    }
    return Status::Internal("unsupported layer in slimming chain: " +
                            child->name());
  }

  result.accuracy_before_finetune =
      EvalAccuracy(pruned.get(), test, /*rate=*/1.0);

  // Stage 4: fine-tune the compact network.
  FullOnlyScheduler scheduler;
  TrainImageClassifier(pruned.get(), train, &scheduler, opts.finetune);

  result.accuracy = EvalAccuracy(pruned.get(), test, /*rate=*/1.0);
  Tensor sample({1, train.channels, train.height, train.width});
  const auto profile = ProfileNet(pruned.get(), sample, {1.0});
  result.flops = profile[0].flops;
  result.params = profile[0].params;
  result.pruned_net = std::move(pruned);
  return result;
}

}  // namespace ms
