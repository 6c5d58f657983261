// Epilogue-fusion pass: walks a built model and plants adjacent
// (producer, activation) pairs into the producer's epilogue.
//
// A Sequential child sequence like Conv2d -> GroupNorm -> ReLU becomes
// "GroupNorm applies ReLU at its own write site; the ReLU module is
// bypassed at inference". Producers that can absorb an activation are
// Dense, Conv2d (grouped and depthwise shapes included), GroupNorm,
// BatchNorm and MultiBatchNorm; absorbable followers are ReLU and Tanh.
//
// The pass only *marks* modules: a producer applies its planted activation
// at inference only, so training forwards (where the activation module
// runs to cache what backward needs) behave exactly as if the pass never
// ran, and fused inference is bitwise identical to unfused (the epilogue
// applies the same float operations at C-writeback that the bypassed
// module would have applied in its own pass). Layer biases are not part
// of the pass: they always ride the GEMM epilogue, training included.
#ifndef MODELSLICING_NN_FUSION_H_
#define MODELSLICING_NN_FUSION_H_

#include "src/nn/module.h"

namespace ms {

/// Recursively fuses activation modules into their producing layers
/// (descends into Sequential and ResidualBlock bodies). Idempotent.
/// Returns the number of (producer, activation) pairs fused.
int64_t FuseActivations(Module* root);

}  // namespace ms

#endif  // MODELSLICING_NN_FUSION_H_
