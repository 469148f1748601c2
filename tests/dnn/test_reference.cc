/**
 * @file
 * Tests for the golden reference convolution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/reference.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace dnn {
namespace {

LayerSpec
smallLayer()
{
    LayerSpec spec;
    spec.name = "small";
    spec.inputX = 4;
    spec.inputY = 4;
    spec.inputChannels = 2;
    spec.filterX = 2;
    spec.filterY = 2;
    spec.numFilters = 2;
    spec.stride = 1;
    spec.pad = 0;
    spec.profiledPrecision = 8;
    return spec;
}

TEST(Reference, HandComputedOnesFilter)
{
    LayerSpec spec = smallLayer();
    NeuronTensor input(4, 4, 2);
    int v = 1;
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 4; x++)
            for (int i = 0; i < 2; i++)
                input.at(x, y, i) = static_cast<uint16_t>(v++);
    FilterTensor ones(2, 2, 2);
    for (auto &w : ones.flat())
        w = 1;
    std::vector<FilterTensor> filters = {ones, ones};
    auto out = referenceConvolution(spec, input, filters);
    // Window (0,0): neurons 1..4 (x0y0), 5..8? Layout: value order is
    // (y, x, i); window covers (0,0),(1,0),(0,1),(1,1) both channels:
    // 1+2 + 3+4 + 9+10 + 11+12 = 52.
    EXPECT_EQ(out.at(0, 0, 0), 52);
    EXPECT_EQ(out.at(0, 0, 1), 52); // Same filter content.
}

TEST(Reference, StrideSkipsWindows)
{
    LayerSpec spec = smallLayer();
    spec.stride = 2;
    NeuronTensor input(4, 4, 2);
    input.at(0, 0, 0) = 7;
    input.at(2, 0, 0) = 3;
    FilterTensor probe(2, 2, 2);
    probe.at(0, 0, 0) = 1;
    std::vector<FilterTensor> filters = {probe, probe};
    auto out = referenceConvolution(spec, input, filters);
    EXPECT_EQ(out.sizeX(), 2);
    EXPECT_EQ(out.at(0, 0, 0), 7);
    EXPECT_EQ(out.at(1, 0, 0), 3); // Window at x==2.
}

TEST(Reference, PaddingReadsZero)
{
    LayerSpec spec = smallLayer();
    spec.pad = 1;
    NeuronTensor input(4, 4, 2);
    input.at(0, 0, 0) = 5;
    FilterTensor probe(2, 2, 2);
    for (auto &w : probe.flat())
        w = 1;
    std::vector<FilterTensor> filters = {probe, probe};
    auto out = referenceConvolution(spec, input, filters);
    EXPECT_EQ(out.sizeX(), 5);
    // Top-left padded window sees only input (0,0).
    EXPECT_EQ(out.at(0, 0, 0), 5);
}

TEST(Reference, NegativeWeights)
{
    LayerSpec spec = smallLayer();
    NeuronTensor input(4, 4, 2);
    input.at(0, 0, 0) = 10;
    input.at(1, 0, 0) = 4;
    FilterTensor f(2, 2, 2);
    f.at(0, 0, 0) = -3;
    f.at(1, 0, 0) = 2;
    std::vector<FilterTensor> filters = {f, f};
    auto out = referenceConvolution(spec, input, filters);
    EXPECT_EQ(out.at(0, 0, 0), -30 + 8);
}

TEST(Reference, WindowDotMatchesFullConvolution)
{
    auto net = makeTinyNetwork();
    ActivationSynthesizer synth(net);
    const auto &spec = net.layers[0];
    auto input = synth.synthesizeFixed16(0);
    auto filters = synthesizeFilters(spec);
    auto out = referenceConvolution(spec, input, filters);
    for (int f = 0; f < spec.numFilters; f += 7) {
        for (int wy = 0; wy < spec.outY(); wy += 3) {
            for (int wx = 0; wx < spec.outX(); wx += 3) {
                EXPECT_EQ(out.at(wx, wy, f),
                          referenceWindowDot(spec, input, filters[f],
                                             wx, wy));
            }
        }
    }
}

/**
 * The independent oracle: the textbook int64 sum over (fy, fx, i)
 * through bounds-checked, zero-padded element access.
 */
int64_t
oracleDot(const LayerSpec &layer, const NeuronTensor &input,
          const FilterTensor &filter, int wx, int wy)
{
    int64_t acc = 0;
    for (int fy = 0; fy < layer.filterY; fy++)
        for (int fx = 0; fx < layer.filterX; fx++)
            for (int i = 0; i < layer.inputChannels; i++)
                acc += static_cast<int64_t>(filter.at(fx, fy, i)) *
                       input.atPadded(wx * layer.stride - layer.pad + fx,
                                      wy * layer.stride - layer.pad + fy,
                                      i);
    return acc;
}

/**
 * Every extreme of the int16 x uint16 range against the oracle, on
 * 832 channels so the kernel's int32 runs end mid-row whenever the
 * weights allow runs longer than one product, under stride and pad
 * variants (pad 3 leaves windows wholly in the padding) and at
 * filter-block counts 1, 2, 3 and 5.
 */
TEST(Reference, ExactAgainstInt64OracleAtExtremes)
{
    using Fill16 = std::function<int16_t(util::Xoshiro256 &)>;
    using FillU16 = std::function<uint16_t(util::Xoshiro256 &)>;
    const std::vector<std::pair<std::string, Fill16>> weights = {
        {"-32768", [](util::Xoshiro256 &) { return int16_t{-32768}; }},
        {"+32767", [](util::Xoshiro256 &) { return int16_t{32767}; }},
        {"+-32767/-32768",
         [](util::Xoshiro256 &rng) {
             static constexpr int16_t kChoices[] = {32767, -32767, -32768};
             return kChoices[rng.nextBounded(3)];
         }},
        {"+-255",
         [](util::Xoshiro256 &rng) {
             return static_cast<int16_t>(
                 static_cast<int>(rng.nextBounded(511)) - 255);
         }},
        {"+-16384",
         [](util::Xoshiro256 &rng) {
             return static_cast<int16_t>(
                 static_cast<int>(rng.nextBounded(32769)) - 16384);
         }},
        {"zero", [](util::Xoshiro256 &) { return int16_t{0}; }},
    };
    const std::vector<std::pair<std::string, FillU16>> inputs = {
        {"65535", [](util::Xoshiro256 &) { return uint16_t{65535}; }},
        {"zero", [](util::Xoshiro256 &) { return uint16_t{0}; }},
        {"0/32768/65535",
         [](util::Xoshiro256 &rng) {
             static constexpr uint16_t kChoices[] = {0, 32768, 65535};
             return kChoices[rng.nextBounded(3)];
         }},
        {"uniform",
         [](util::Xoshiro256 &rng) {
             return static_cast<uint16_t>(rng.nextBounded(65536));
         }},
    };
    struct Geometry
    {
        int stride;
        int pad;
    };
    const std::vector<Geometry> geometries = {{1, 0}, {2, 1}, {1, 3}};
    util::ThreadPool pool(4);

    LayerSpec layer;
    layer.name = "extremes";
    layer.inputX = 4;
    layer.inputY = 3;
    layer.inputChannels = 832;
    layer.filterX = 3;
    layer.filterY = 3;
    layer.numFilters = 5;
    util::Xoshiro256 rng(0xe4ac7);
    for (const auto &[wname, weight] : weights) {
        std::vector<FilterTensor> filters(
            layer.numFilters,
            FilterTensor(layer.filterX, layer.filterY,
                         layer.inputChannels));
        for (auto &filter : filters)
            for (auto &w : filter.flat())
                w = weight(rng);
        for (const auto &[iname, value] : inputs) {
            NeuronTensor input(layer.inputX, layer.inputY,
                               layer.inputChannels);
            for (auto &v : input.flat())
                v = value(rng);
            for (const Geometry &geometry : geometries) {
                layer.stride = geometry.stride;
                layer.pad = geometry.pad;
                SCOPED_TRACE("weights " + wname + ", inputs " + iname +
                             ", stride " + std::to_string(layer.stride) +
                             ", pad " + std::to_string(layer.pad));
                OutputTensor expected(layer.outX(), layer.outY(),
                                      layer.numFilters);
                for (int f = 0; f < layer.numFilters; f++)
                    for (int wy = 0; wy < layer.outY(); wy++)
                        for (int wx = 0; wx < layer.outX(); wx++) {
                            expected.at(wx, wy, f) =
                                oracleDot(layer, input, filters[f], wx, wy);
                            ASSERT_EQ(referenceWindowDot(layer, input,
                                                         filters[f], wx,
                                                         wy),
                                      expected.at(wx, wy, f));
                        }
                for (int blocks : {1, 2, 3, 5}) {
                    util::InnerExecutor exec(&pool, blocks);
                    OutputTensor out =
                        referenceConvolution(layer, input, filters, exec);
                    ASSERT_TRUE(std::equal(out.flat().begin(),
                                           out.flat().end(),
                                           expected.flat().begin(),
                                           expected.flat().end()))
                        << blocks << " filter blocks";
                }
            }
        }
    }
}

TEST(Reference, ShapeMismatchPanics)
{
    LayerSpec spec = smallLayer();
    NeuronTensor wrong(3, 4, 2);
    std::vector<FilterTensor> filters(2, FilterTensor(2, 2, 2));
    EXPECT_DEATH(referenceConvolution(spec, wrong, filters),
                 "shape mismatch");
    NeuronTensor input(4, 4, 2);
    std::vector<FilterTensor> too_few(1, FilterTensor(2, 2, 2));
    EXPECT_DEATH(referenceConvolution(spec, input, too_few),
                 "filter count");
}

} // namespace
} // namespace dnn
} // namespace pra
