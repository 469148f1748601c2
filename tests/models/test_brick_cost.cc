/**
 * @file
 * Per-brick parity of BrickCostModel's two resolution paths: the
 * packed planes plus memoized cycle plane, and no planes at all (a
 * reshaped machine gathers every brick from the tensor). The second
 * is the per-brick reference; both must agree on {cycles, terms} for
 * every brick at every first-stage width.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "models/pragmatic/brick_cost.h"
#include "sim/tiling.h"
#include "sim/workload_cache.h"
#include "util/random.h"

namespace pra {
namespace models {
namespace {

TEST(BrickCost, PlaneLookupsMatchPerBrickReference)
{
    // Partial channel bricks (24 = 16 + 8), stride 2, padded edges.
    dnn::LayerSpec layer;
    layer.name = "brick-cost";
    layer.inputX = 11;
    layer.inputY = 9;
    layer.inputChannels = 24;
    layer.filterX = 3;
    layer.filterY = 3;
    layer.numFilters = 16;
    layer.stride = 2;
    layer.pad = 1;
    layer.profiledPrecision = 8;
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    // Dense full-range codes and sparse narrow ones, so the orPop and
    // maxPop bounds both agree and disagree.
    for (auto [seed, zero_prob, bound] :
         {std::tuple{0xb1c0ull, 0.0, 65536u},
          std::tuple{0xb1c1ull, 0.5, 1u << 10}}) {
        dnn::NeuronTensor input(layer.inputX, layer.inputY,
                                layer.inputChannels);
        util::Xoshiro256 rng(seed);
        for (auto &v : input.flat())
            v = rng.nextBool(zero_prob)
                    ? 0
                    : static_cast<uint16_t>(rng.nextBounded(bound));
        sim::LayerWorkload workload(input);
        const sim::BrickPlanes *planes = &workload.brickPlanes();
        for (int bits = 0; bits <= kMaxFirstStageBits; bits++) {
            const uint8_t *cycles =
                bits >= 1 && bits < kMaxFirstStageBits
                    ? workload.cyclePlane(bits).data()
                    : nullptr;
            BrickCostModel memoized(tiling, input, planes, cycles, bits);
            BrickCostModel reference(tiling, input, nullptr, nullptr,
                                     bits);
            for (int64_t w = 0; w < layer.windows(); w++) {
                for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
                    sim::WindowCoord wc = tiling.windowCoord(w);
                    sim::SynapseSetCoord sc = tiling.setCoord(s);
                    BrickCostModel::Cost want = reference.brick(wc, sc);
                    BrickCostModel::Cost got = memoized.brick(wc, sc);
                    SCOPED_TRACE("seed=" + std::to_string(seed) +
                                 " L=" + std::to_string(bits) +
                                 " w=" + std::to_string(w) +
                                 " s=" + std::to_string(s));
                    EXPECT_EQ(got.cycles, want.cycles);
                    EXPECT_EQ(got.terms, want.terms);
                }
            }
        }
    }
}

TEST(BrickCostDeathTest, PlanesAtIntermediateWidthNeedCyclePlane)
{
    // Brick planes alone answer L=0 and L=4 only; L=1..3 must come
    // with the memoized cycle plane (there is no serial fallback).
    dnn::LayerSpec layer;
    layer.name = "no-cycle-plane";
    layer.inputX = 4;
    layer.inputY = 4;
    layer.inputChannels = 16;
    layer.filterX = 1;
    layer.filterY = 1;
    layer.numFilters = 16;
    layer.profiledPrecision = 8;
    sim::LayerTiling tiling(layer, sim::AccelConfig{});
    dnn::NeuronTensor input(4, 4, 16);
    sim::LayerWorkload workload(input);
    const sim::BrickPlanes *planes = &workload.brickPlanes();
    EXPECT_DEATH(BrickCostModel(tiling, input, planes, nullptr, 2),
                 "need their cycle plane");
    // The L=0/L=4 plane paths and the tensor path need none.
    BrickCostModel(tiling, input, planes, nullptr, 0);
    BrickCostModel(tiling, input, planes, nullptr, kMaxFirstStageBits);
    BrickCostModel(tiling, input, nullptr, nullptr, 2);
}

} // namespace
} // namespace models
} // namespace pra
