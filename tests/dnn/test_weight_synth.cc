/**
 * @file
 * Tests for the deterministic weight-code synthesizer: code ranges,
 * stream determinism, the seed-independence contract (one trained
 * network, regardless of --seed), the propagated requantization
 * against a direct materialization of the reference weights, and
 * digests that pin real-zoo weight and activation streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/propagate.h"
#include "dnn/weight_synth.h"
#include "util/random.h"

namespace pra {
namespace dnn {
namespace {

LayerSpec
testLayer(int weight_precision)
{
    LayerSpec spec;
    spec.name = "wsynth";
    spec.inputX = 5;
    spec.inputY = 5;
    spec.inputChannels = 32;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 12;
    spec.stride = 1;
    spec.pad = 1;
    spec.profiledPrecision = 8;
    spec.profiledWeightPrecision = weight_precision;
    return spec;
}

TEST(WeightSynth, CodesStayInProfiledPrecisionRange)
{
    for (int wp : {2, 8, 9, 16}) {
        LayerSpec layer = testLayer(wp);
        std::vector<uint16_t> codes(
            static_cast<size_t>(layer.synapsesPerFilter()));
        uint32_t max_code = (1u << wp) - 1;
        for (int f = 0; f < layer.numFilters; f++) {
            synthesizeWeightCodes(layer, f, codes);
            for (uint16_t code : codes)
                ASSERT_LE(code, max_code) << "wp=" << wp;
        }
    }
}

TEST(WeightSynth, StreamIsDeterministicAndPerFilter)
{
    LayerSpec layer = testLayer(8);
    std::vector<uint16_t> a(
        static_cast<size_t>(layer.synapsesPerFilter()));
    std::vector<uint16_t> b(a.size());
    synthesizeWeightCodes(layer, 3, a);
    synthesizeWeightCodes(layer, 3, b);
    EXPECT_EQ(a, b);
    synthesizeWeightCodes(layer, 4, b);
    EXPECT_NE(a, b);
    // A different layer name is a different trained tensor.
    LayerSpec other = testLayer(8);
    other.name = "wsynth2";
    synthesizeWeightCodes(other, 3, b);
    EXPECT_NE(a, b);
}

TEST(WeightSynth, SparsityAndDensityLandNearTargets)
{
    LayerSpec layer = testLayer(8);
    int64_t zeros = 0, total = 0, set_bits = 0;
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    for (int f = 0; f < layer.numFilters; f++) {
        synthesizeWeightCodes(layer, f, codes);
        for (uint16_t code : codes) {
            total++;
            zeros += code == 0;
            set_bits += std::popcount(code);
        }
    }
    double zero_frac =
        static_cast<double>(zeros) / static_cast<double>(total);
    // kWeightZeroFraction exactly-zero codes plus the distribution's
    // own near-zero mass keeps this loose on the low side.
    EXPECT_GT(zero_frac, 0.02);
    EXPECT_LT(zero_frac, 0.15);
    double mean_pop =
        static_cast<double>(set_bits) / static_cast<double>(total);
    EXPECT_GT(mean_pop, 1.0);
    EXPECT_LT(mean_pop, 3.5);
}

/**
 * Check @p layer's PropagatedWeightCodes against a direct
 * materialization of the reference filters, requantized by hand.
 * Returns the layer's max |w|.
 */
int
expectMatchesRequantizedReference(const LayerSpec &layer)
{
    const uint64_t synth_seed = 0xfeed;
    PropagatedWeightCodes source(layer, synth_seed);

    std::vector<FilterTensor> filters =
        synthesizeFilters(layer, synth_seed ^ kPropagationFilterSalt);
    int max_mag = 0;
    for (const auto &f : filters)
        for (int16_t w : f.flat())
            max_mag = std::max(max_mag, std::abs(w));
    EXPECT_EQ(source.maxMagnitude(), max_mag);

    const int max_code = (1 << layer.profiledWeightPrecision) - 1;
    const double scale = static_cast<double>(max_code) / max_mag;
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    for (int f = 0; f < layer.numFilters; f++) {
        source.filterCodes(f, codes);
        size_t s = 0;
        bool all_match = true;
        for (int fy = 0; fy < layer.filterY; fy++)
            for (int fx = 0; fx < layer.filterX; fx++)
                for (int c = 0; c < layer.inputChannels; c++) {
                    uint16_t want = static_cast<uint16_t>(std::llround(
                        std::abs(filters[static_cast<size_t>(f)].at(
                            fx, fy, c)) *
                        scale));
                    all_match &= codes[s++] == want;
                }
        EXPECT_TRUE(all_match) << "filter " << f;
    }
    return max_mag;
}

TEST(WeightSynth, PropagatedCodesMatchRequantizedReference)
{
    // 3,456 weights: the max-|w| scan stops early at the range bound.
    EXPECT_EQ(expectMatchesRequantizedReference(testLayer(9)), 255);
}

TEST(WeightSynth, PropagatedCodesMatchOnFullScan)
{
    // Eight weights never reach the range bound here, so the max-|w|
    // scan runs to the end of the stream.
    LayerSpec layer = testLayer(9);
    layer.inputX = 1;
    layer.inputY = 1;
    layer.inputChannels = 4;
    layer.filterX = 1;
    layer.filterY = 1;
    layer.numFilters = 2;
    layer.pad = 0;
    EXPECT_LT(expectMatchesRequantizedReference(layer), 255);
}

/** FNV-1a digest of a code stream, one mix per code. */
uint64_t
digestCodes(std::span<const uint16_t> codes, uint64_t h)
{
    for (uint16_t code : codes)
        h = util::fnv1aMix(h, code);
    return h;
}

/** Index of the layer named @p name in @p net. */
size_t
layerIndex(const Network &net, const std::string &name)
{
    for (size_t i = 0; i < net.layers.size(); i++)
        if (net.layers[i].name == name)
            return i;
    ADD_FAILURE() << "no layer " << name << " in " << net.name;
    return 0;
}

TEST(SynthDigests, RealZooStreamsArePinned)
{
    // The smoke network only reaches 7-8-bit sampling tables; these
    // pin the 10-bit weight and 12-13-bit activation tables the real
    // zoo prices, so a sampler change that moves any draw shows here.
    struct WeightCase
    {
        Network net;
        const char *layer;
        uint64_t digest;
    };
    const WeightCase weight_cases[] = {
        {makeVgg19(LayerSelect::All), "fc6", 0xb0e4d82b3bb9af52ull},
        {makeAlexNet(LayerSelect::All), "fc8", 0x3732780a02fa9705ull},
    };
    for (const auto &wc : weight_cases) {
        const LayerSpec &layer = wc.net.layers[layerIndex(wc.net, wc.layer)];
        EXPECT_EQ(layer.profiledWeightPrecision, 10);
        std::vector<uint16_t> codes(
            static_cast<size_t>(layer.synapsesPerFilter()));
        uint64_t h = util::kFnv1aOffset;
        for (int f = 0; f < 64; f++) {
            synthesizeWeightCodes(layer, f, codes);
            h = digestCodes(codes, h);
        }
        EXPECT_EQ(h, wc.digest)
            << wc.net.name << " " << wc.layer << ": 0x" << std::hex << h;
    }

    struct ActivationCase
    {
        const char *layer;
        int precision;
        uint64_t digest;
    };
    const Network vgg = makeVgg19();
    const ActivationSynthesizer synth(vgg);
    const ActivationCase activation_cases[] = {
        {"conv3_1", 12, 0x7b9ac209367162c0ull},
        {"conv4_1", 13, 0x98b2385dba41a0e7ull},
    };
    for (const auto &ac : activation_cases) {
        const size_t idx = layerIndex(vgg, ac.layer);
        EXPECT_EQ(vgg.layers[idx].profiledPrecision, ac.precision);
        uint64_t h = digestCodes(
            synth.synthesizeFixed16(static_cast<int>(idx)).flat(),
            util::kFnv1aOffset);
        EXPECT_EQ(h, ac.digest) << ac.layer << ": 0x" << std::hex << h;
    }
}

TEST(WeightSynthDeathTest, PropagatedFiltersMustStreamInOrder)
{
    LayerSpec layer = testLayer(8);
    PropagatedWeightCodes source(layer, 0xfeed);
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    source.filterCodes(0, codes);
    EXPECT_DEATH(source.filterCodes(2, codes), "order");
}

} // namespace
} // namespace dnn
} // namespace pra
