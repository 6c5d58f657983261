#include "src/nn/fusion.h"

#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/norm.h"
#include "src/nn/residual.h"

namespace ms {
namespace {

// Plants `act` into the producer's inference epilogue. Returns false when
// the module kind cannot absorb an activation (pooling, dropout, ...).
bool PlantActivation(Module* producer, ops::EpiAct act) {
  if (auto* d = dynamic_cast<Dense*>(producer)) {
    d->SetFusedActivation(act);
    return true;
  }
  if (auto* c = dynamic_cast<Conv2d*>(producer)) {
    c->SetFusedActivation(act);
    return true;
  }
  if (auto* gn = dynamic_cast<GroupNorm*>(producer)) {
    gn->SetFusedActivation(act);
    return true;
  }
  if (auto* bn = dynamic_cast<BatchNorm*>(producer)) {
    bn->SetFusedActivation(act);
    return true;
  }
  if (auto* mbn = dynamic_cast<MultiBatchNorm*>(producer)) {
    mbn->SetFusedActivation(act);
    return true;
  }
  return false;
}

}  // namespace

int64_t FuseActivations(Module* root) {
  int64_t fused = 0;
  if (auto* seq = dynamic_cast<Sequential*>(root)) {
    for (size_t i = 0; i < seq->size(); ++i) {
      fused += FuseActivations(seq->child(i));
    }
    for (size_t i = 0; i + 1 < seq->size(); ++i) {
      Module* producer = seq->child(i);
      if (auto* relu = dynamic_cast<ReLU*>(seq->child(i + 1))) {
        if (PlantActivation(producer, ops::EpiAct::kRelu)) {
          relu->set_fused(true);
          ++fused;
        }
      } else if (auto* th = dynamic_cast<Tanh*>(seq->child(i + 1))) {
        if (PlantActivation(producer, ops::EpiAct::kTanh)) {
          th->set_fused(true);
          ++fused;
        }
      }
    }
    return fused;
  }
  if (auto* res = dynamic_cast<ResidualBlock*>(root)) {
    return FuseActivations(res->body());
  }
  return 0;
}

}  // namespace ms
