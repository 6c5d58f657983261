#include "src/models/cnn.h"

#include <cmath>

#include "src/nn/activations.h"
#include "src/nn/fusion.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/norm.h"
#include "src/nn/pooling.h"
#include "src/nn/residual.h"

namespace ms {

int64_t ScaledWidth(int64_t width, double mult) {
  const int64_t w = static_cast<int64_t>(std::llround(width * mult));
  return std::max<int64_t>(1, w);
}

std::unique_ptr<Module> MakeNorm(NormKind kind, int64_t channels,
                                 int64_t groups,
                                 const std::vector<double>& multi_bn_rates,
                                 const std::string& name) {
  NormOptions nopts;
  nopts.channels = channels;
  nopts.groups = groups;
  nopts.slice = true;
  switch (kind) {
    case NormKind::kGroup:
      return std::make_unique<GroupNorm>(nopts, name);
    case NormKind::kBatch:
      return std::make_unique<BatchNorm>(nopts, name);
    case NormKind::kMultiBatch: {
      MS_CHECK_MSG(!multi_bn_rates.empty(),
                   "MultiBatchNorm requires candidate rates");
      return std::make_unique<MultiBatchNorm>(nopts, multi_bn_rates, name);
    }
  }
  MS_CHECK(false);
  return nullptr;
}

namespace {

Status ValidateConfig(const CnnConfig& c) {
  if (c.in_channels < 1 || c.num_classes < 2) {
    return Status::InvalidArgument("bad channel/class counts");
  }
  if (c.base_width < 1 || c.width_mult <= 0.0) {
    return Status::InvalidArgument("bad width");
  }
  if (c.stages < 1 || c.blocks_per_stage < 1) {
    return Status::InvalidArgument("bad depth");
  }
  if (c.slice_groups < 1) {
    return Status::InvalidArgument("bad slice group count");
  }
  if (c.norm == NormKind::kMultiBatch && c.multi_bn_rates.empty()) {
    return Status::InvalidArgument("multi-BN needs candidate rates");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Sequential>> MakeVggSmall(const CnnConfig& config) {
  MS_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  auto net = std::make_unique<Sequential>("vgg_small");

  int64_t in_ch = config.in_channels;
  for (int64_t s = 0; s < config.stages; ++s) {
    const int64_t width =
        ScaledWidth(config.base_width << s, config.width_mult);
    for (int64_t b = 0; b < config.blocks_per_stage; ++b) {
      Conv2dOptions copts;
      copts.in_channels = in_ch;
      copts.out_channels = width;
      copts.kernel = 3;
      copts.stride = 1;
      copts.pad = 1;
      copts.groups = config.slice_groups;
      // The network input (image channels) is never sliced.
      copts.slice_in = !(s == 0 && b == 0);
      copts.slice_out = true;
      const std::string tag =
          "s" + std::to_string(s) + "b" + std::to_string(b);
      net->Emplace<Conv2d>(copts, &rng, "conv_" + tag);
      net->Add(MakeNorm(config.norm, width, config.slice_groups,
                        config.multi_bn_rates, "norm_" + tag));
      net->Emplace<ReLU>();
      in_ch = width;
    }
    if (s + 1 < config.stages) net->Emplace<MaxPool2d>(2, 2);
  }
  net->Emplace<GlobalAvgPool>();
  DenseOptions dopts;
  dopts.in_features = in_ch;
  dopts.out_features = config.num_classes;
  dopts.groups = config.slice_groups;
  dopts.slice_in = true;
  dopts.slice_out = false;  // Output layer stays full (Sec. 5.1.1).
  dopts.bias = true;
  // No rescaling: the GAP input comes from normalized features, so its
  // scale is already stable across slice rates (the paper applies output
  // rescaling to NNLM dense layers only, Sec. 5.2.2).
  dopts.rescale = false;
  net->Emplace<Dense>(dopts, &rng, "classifier");
  FuseActivations(net.get());
  return net;
}

namespace {

// Pre-activation ResNeXt block: norm-ReLU-1x1 reduce, norm-ReLU-grouped
// 3x3 (branches == slicing groups), norm-ReLU-1x1 expand.
std::unique_ptr<Module> MakeResNeXtBlock(const CnnConfig& config,
                                         int64_t in_ch, int64_t out_ch,
                                         const std::string& tag, Rng* rng) {
  // Branch width must divide evenly: round mid up to a multiple of groups.
  int64_t mid = std::max<int64_t>(config.slice_groups, out_ch / 2);
  mid += (config.slice_groups - mid % config.slice_groups) %
         config.slice_groups;
  auto body = std::make_unique<Sequential>("next_body_" + tag);
  body->Add(MakeNorm(config.norm, in_ch, config.slice_groups,
                     config.multi_bn_rates, "n1_" + tag));
  body->Emplace<ReLU>();
  {
    Conv2dOptions c;
    c.in_channels = in_ch;
    c.out_channels = mid;
    c.kernel = 1;
    c.pad = 0;
    c.groups = config.slice_groups;
    body->Emplace<Conv2d>(c, rng, "c1_" + tag);
  }
  body->Add(MakeNorm(config.norm, mid, config.slice_groups,
                     config.multi_bn_rates, "n2_" + tag));
  body->Emplace<ReLU>();
  {
    Conv2dOptions g;
    g.in_channels = mid;
    g.out_channels = mid;
    g.kernel = 3;
    g.pad = 1;
    g.groups = config.slice_groups;
    g.branches = config.slice_groups;
    body->Emplace<Conv2d>(g, rng, "gc_" + tag);
  }
  body->Add(MakeNorm(config.norm, mid, config.slice_groups,
                     config.multi_bn_rates, "n3_" + tag));
  body->Emplace<ReLU>();
  {
    Conv2dOptions c;
    c.in_channels = mid;
    c.out_channels = out_ch;
    c.kernel = 1;
    c.pad = 0;
    c.groups = config.slice_groups;
    body->Emplace<Conv2d>(c, rng, "c3_" + tag);
  }
  std::unique_ptr<Module> shortcut;
  if (in_ch != out_ch) {
    Conv2dOptions c;
    c.in_channels = in_ch;
    c.out_channels = out_ch;
    c.kernel = 1;
    c.pad = 0;
    c.groups = config.slice_groups;
    auto proj = std::make_unique<Sequential>("next_proj_" + tag);
    proj->Emplace<Conv2d>(c, rng, "sc_" + tag);
    shortcut = std::move(proj);
  }
  return std::make_unique<ResidualBlock>(std::move(body),
                                         std::move(shortcut),
                                         "next_" + tag);
}

}  // namespace

Result<std::unique_ptr<Sequential>> MakeResNeXtSmall(
    const CnnConfig& config) {
  MS_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  auto net = std::make_unique<Sequential>("resnext_small");

  int64_t in_ch = ScaledWidth(config.base_width, config.width_mult);
  // Keep widths divisible by the branch count.
  in_ch += (config.slice_groups - in_ch % config.slice_groups) %
           config.slice_groups;
  {
    Conv2dOptions c;
    c.in_channels = config.in_channels;
    c.out_channels = in_ch;
    c.kernel = 3;
    c.pad = 1;
    c.groups = config.slice_groups;
    c.slice_in = false;
    net->Emplace<Conv2d>(c, &rng, "stem");
  }
  for (int64_t s = 0; s < config.stages; ++s) {
    int64_t out_ch = ScaledWidth(config.base_width << s, config.width_mult);
    out_ch += (config.slice_groups - out_ch % config.slice_groups) %
              config.slice_groups;
    for (int64_t b = 0; b < config.blocks_per_stage; ++b) {
      const std::string tag =
          "s" + std::to_string(s) + "b" + std::to_string(b);
      net->Add(MakeResNeXtBlock(config, in_ch, out_ch, tag, &rng));
      in_ch = out_ch;
    }
    if (s + 1 < config.stages) net->Emplace<MaxPool2d>(2, 2);
  }
  net->Add(MakeNorm(config.norm, in_ch, config.slice_groups,
                    config.multi_bn_rates, "final_norm"));
  net->Emplace<ReLU>();
  net->Emplace<GlobalAvgPool>();
  DenseOptions dopts;
  dopts.in_features = in_ch;
  dopts.out_features = config.num_classes;
  dopts.groups = config.slice_groups;
  dopts.slice_in = true;
  dopts.slice_out = false;
  dopts.bias = true;
  dopts.rescale = false;
  net->Emplace<Dense>(dopts, &rng, "classifier");
  FuseActivations(net.get());
  return net;
}

Result<std::unique_ptr<Sequential>> MakeMobileNetSmall(
    const CnnConfig& config) {
  MS_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  auto net = std::make_unique<Sequential>("mobilenet_small");

  // Stem: full 3x3 conv from image channels.
  int64_t in_ch = ScaledWidth(config.base_width, config.width_mult);
  {
    Conv2dOptions c;
    c.in_channels = config.in_channels;
    c.out_channels = in_ch;
    c.kernel = 3;
    c.stride = 1;
    c.pad = 1;
    c.groups = config.slice_groups;
    c.slice_in = false;
    net->Emplace<Conv2d>(c, &rng, "stem");
    net->Add(MakeNorm(config.norm, in_ch, config.slice_groups,
                      config.multi_bn_rates, "stem_norm"));
    net->Emplace<ReLU>();
  }

  for (int64_t s = 0; s < config.stages; ++s) {
    const int64_t width =
        ScaledWidth(config.base_width << s, config.width_mult);
    for (int64_t b = 0; b < config.blocks_per_stage; ++b) {
      const std::string tag =
          "s" + std::to_string(s) + "b" + std::to_string(b);
      // Depthwise 3x3 over the current channels.
      Conv2dOptions dw;
      dw.in_channels = in_ch;
      dw.out_channels = in_ch;
      dw.kernel = 3;
      dw.pad = 1;
      dw.groups = config.slice_groups;
      dw.branches = in_ch;
      net->Emplace<Conv2d>(dw, &rng, "dw_" + tag);
      net->Add(MakeNorm(config.norm, in_ch, config.slice_groups,
                        config.multi_bn_rates, "dwn_" + tag));
      net->Emplace<ReLU>();
      // Pointwise 1x1 expansion to the stage width.
      Conv2dOptions pw;
      pw.in_channels = in_ch;
      pw.out_channels = width;
      pw.kernel = 1;
      pw.stride = 1;
      pw.pad = 0;
      pw.groups = config.slice_groups;
      net->Emplace<Conv2d>(pw, &rng, "pw_" + tag);
      net->Add(MakeNorm(config.norm, width, config.slice_groups,
                        config.multi_bn_rates, "pwn_" + tag));
      net->Emplace<ReLU>();
      in_ch = width;
    }
    if (s + 1 < config.stages) net->Emplace<MaxPool2d>(2, 2);
  }

  net->Emplace<GlobalAvgPool>();
  DenseOptions dopts;
  dopts.in_features = in_ch;
  dopts.out_features = config.num_classes;
  dopts.groups = config.slice_groups;
  dopts.slice_in = true;
  dopts.slice_out = false;
  dopts.bias = true;
  dopts.rescale = false;
  net->Emplace<Dense>(dopts, &rng, "classifier");
  FuseActivations(net.get());
  return net;
}

namespace {

// Pre-activation bottleneck: norm-ReLU-1x1 reduce, norm-ReLU-3x3 (stride),
// norm-ReLU-1x1 expand. `in_ch -> out_ch` with mid = out_ch / 4.
std::unique_ptr<Module> MakeBottleneck(const CnnConfig& config, int64_t in_ch,
                                       int64_t out_ch, int64_t stride,
                                       bool first_in_net,
                                       const std::string& tag, Rng* rng) {
  const int64_t mid = std::max<int64_t>(1, out_ch / 4);
  auto body = std::make_unique<Sequential>("bottleneck_" + tag);
  body->Add(MakeNorm(config.norm, in_ch, config.slice_groups,
                     config.multi_bn_rates, "n1_" + tag));
  body->Emplace<ReLU>();
  {
    Conv2dOptions c;
    c.in_channels = in_ch;
    c.out_channels = mid;
    c.kernel = 1;
    c.stride = 1;
    c.pad = 0;
    c.groups = config.slice_groups;
    c.slice_in = !first_in_net;
    body->Emplace<Conv2d>(c, rng, "c1_" + tag);
  }
  body->Add(MakeNorm(config.norm, mid, config.slice_groups,
                     config.multi_bn_rates, "n2_" + tag));
  body->Emplace<ReLU>();
  {
    Conv2dOptions c;
    c.in_channels = mid;
    c.out_channels = mid;
    c.kernel = 3;
    c.stride = stride;
    c.pad = 1;
    c.groups = config.slice_groups;
    body->Emplace<Conv2d>(c, rng, "c2_" + tag);
  }
  body->Add(MakeNorm(config.norm, mid, config.slice_groups,
                     config.multi_bn_rates, "n3_" + tag));
  body->Emplace<ReLU>();
  {
    Conv2dOptions c;
    c.in_channels = mid;
    c.out_channels = out_ch;
    c.kernel = 1;
    c.stride = 1;
    c.pad = 0;
    c.groups = config.slice_groups;
    body->Emplace<Conv2d>(c, rng, "c3_" + tag);
  }

  std::unique_ptr<Module> shortcut;
  if (in_ch != out_ch || stride != 1 || first_in_net) {
    Conv2dOptions c;
    c.in_channels = in_ch;
    c.out_channels = out_ch;
    c.kernel = 1;
    c.stride = stride;
    c.pad = 0;
    c.groups = config.slice_groups;
    c.slice_in = !first_in_net;
    auto proj = std::make_unique<Sequential>("proj_" + tag);
    proj->Emplace<Conv2d>(c, rng, "sc_" + tag);
    shortcut = std::move(proj);
  }
  return std::make_unique<ResidualBlock>(std::move(body), std::move(shortcut),
                                         "res_" + tag);
}

}  // namespace

Result<std::unique_ptr<Sequential>> MakeResNet(const CnnConfig& config) {
  MS_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  auto net = std::make_unique<Sequential>("resnet");

  // Stem: 3x3 conv from image channels (unsliced input).
  const int64_t stem_width = ScaledWidth(config.base_width, config.width_mult);
  {
    Conv2dOptions c;
    c.in_channels = config.in_channels;
    c.out_channels = stem_width;
    c.kernel = 3;
    c.stride = 1;
    c.pad = 1;
    c.groups = config.slice_groups;
    c.slice_in = false;
    net->Emplace<Conv2d>(c, &rng, "stem");
  }

  int64_t in_ch = stem_width;
  for (int64_t s = 0; s < config.stages; ++s) {
    const int64_t out_ch =
        ScaledWidth((config.base_width << s) * 4, config.width_mult);
    for (int64_t b = 0; b < config.blocks_per_stage; ++b) {
      const int64_t stride = (s > 0 && b == 0) ? 2 : 1;
      const std::string tag =
          "s" + std::to_string(s) + "b" + std::to_string(b);
      net->Add(MakeBottleneck(config, in_ch, out_ch, stride,
                              /*first_in_net=*/false, tag, &rng));
      in_ch = out_ch;
    }
  }

  net->Add(MakeNorm(config.norm, in_ch, config.slice_groups,
                    config.multi_bn_rates, "final_norm"));
  net->Emplace<ReLU>();
  net->Emplace<GlobalAvgPool>();
  DenseOptions dopts;
  dopts.in_features = in_ch;
  dopts.out_features = config.num_classes;
  dopts.groups = config.slice_groups;
  dopts.slice_in = true;
  dopts.slice_out = false;
  dopts.bias = true;
  dopts.rescale = false;
  net->Emplace<Dense>(dopts, &rng, "classifier");
  FuseActivations(net.get());
  return net;
}

}  // namespace ms
