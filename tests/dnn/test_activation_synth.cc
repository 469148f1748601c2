/**
 * @file
 * Tests for the calibrated synthetic activation generator — the
 * substitute for the paper's real ImageNet traces (docs/ARCHITECTURE.md,
 * "Calibrated substrates").
 * The key checks: determinism, that the synthesized streams hit
 * the paper's Table I bit statistics they were calibrated against,
 * and that the guide-table sampler returns exactly the binary
 * search's value for every draw.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/weight_synth.h"
#include "fixedpoint/fixed_point.h"
#include "util/random.h"

namespace pra {
namespace dnn {
namespace {

TEST(DiscreteExponential, UniformWhenLambdaZero)
{
    DiscreteExponential d(0.0, 15);
    EXPECT_NEAR(d.expectedValue(), 8.0, 1e-9);
    // Mean popcount of 1..15 = 32/15.
    EXPECT_NEAR(d.expectedPopcount(), 32.0 / 15.0, 1e-9);
    // Calibration's table-free moments are the same numbers.
    ExponentialMoments m = discreteExponentialMoments(0.0, 15);
    EXPECT_EQ(m.popcount, d.expectedPopcount());
    EXPECT_EQ(m.value, d.expectedValue());
}

TEST(DiscreteExponential, LargeLambdaConcentratesOnOne)
{
    DiscreteExponential d(1e6, 255);
    EXPECT_NEAR(d.expectedValue(), 1.0, 1e-3);
    EXPECT_NEAR(d.expectedPopcount(), 1.0, 1e-3);
}

TEST(DiscreteExponential, SampleMatchesExpectation)
{
    DiscreteExponential d(8.0, 511);
    util::Xoshiro256 rng(99);
    double sum_pop = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; i++) {
        uint32_t v = d.sample(rng);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 511u);
        sum_pop += fixedpoint::essentialBits(static_cast<uint16_t>(v));
    }
    EXPECT_NEAR(sum_pop / n, d.expectedPopcount(), 0.05);
}

/** The binary-search inverse CDF the guide table must reproduce. */
uint32_t
referenceInverse(const std::vector<double> &cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    size_t idx = static_cast<size_t>(it - cdf.begin());
    if (idx >= cdf.size())
        idx = cdf.size() - 1;
    return static_cast<uint32_t>(idx + 1);
}

TEST(DiscreteExponential, GuideTableMatchesBinarySearch)
{
    // Every u the tables can treat differently: 0, each CDF entry and
    // its neighbours, each bucket edge j / K (1 included) and its
    // neighbours, the largest draw nextDouble() can return, and a run
    // of real draws.
    const double kLastDraw = 1.0 - 0x1.0p-53;
    for (uint32_t max_value :
         {1u, 2u, 3u, 255u, 511u, 1023u, 2047u, 8191u, 65535u}) {
        for (double lambda :
             {0.0, 1e6, calibrateLambda(max_value, kLightComponentPopcount),
              calibrateLambda(max_value, kWeightPopcountTarget)}) {
            DiscreteExponential d(lambda, max_value);
            const std::vector<double> &cdf = d.cdf();
            ASSERT_EQ(cdf.size(), max_value);
            std::vector<double> us = {0.0, kLastDraw};
            auto add_with_neighbours = [&us](double u) {
                us.push_back(std::nextafter(u, 0.0));
                us.push_back(u);
                us.push_back(std::nextafter(u, 2.0));
            };
            for (double c : cdf)
                add_with_neighbours(c);
            const uint32_t buckets = std::bit_ceil(max_value);
            for (uint32_t j = 0; j <= buckets; j++)
                add_with_neighbours(static_cast<double>(j) / buckets);
            util::Xoshiro256 rng(max_value ^ 0xd15c);
            for (int i = 0; i < 100000; i++)
                us.push_back(rng.nextDouble());

            int64_t mismatches = 0;
            for (double u : us) {
                if (u < 0.0 || u > 1.0)
                    continue;
                mismatches += d.inverse(u) != referenceInverse(cdf, u);
            }
            EXPECT_EQ(mismatches, 0)
                << "max_value " << max_value << " lambda " << lambda;
        }
    }
}

TEST(DiscreteExponential, SampleIsInverseOfNextDouble)
{
    DiscreteExponential d(calibrateLambda(2047, kWeightPopcountTarget),
                          2047);
    util::Xoshiro256 a(7);
    util::Xoshiro256 b(7);
    for (int i = 0; i < 10000; i++)
        ASSERT_EQ(d.sample(a), d.inverse(b.nextDouble()));
}

TEST(DiscreteExponentialDeathTest, RejectsDrawsOutsideUnitInterval)
{
    DiscreteExponential d(1.0, 15);
    EXPECT_DEATH(d.inverse(1.5), "outside");
    EXPECT_DEATH(d.inverse(-0.25), "outside");
}

TEST(CalibrateLambda, HitsTarget)
{
    for (double target : {1.5, 2.0, 2.5, 3.0}) {
        double lambda = calibrateLambda(511, target);
        DiscreteExponential d(lambda, 511);
        EXPECT_NEAR(d.expectedPopcount(), target, 0.05) << target;
    }
}

TEST(CalibrateLambda, ClampsUnreachableTargets)
{
    // Above uniform mean -> lambda 0.
    EXPECT_EQ(calibrateLambda(255, 7.9), 0.0);
    // Below 1 -> concentrate on value 1.
    EXPECT_GE(calibrateLambda(255, 0.5), 1e5);
}

TEST(ActivationSynth, Deterministic)
{
    auto net = makeTinyNetwork();
    ActivationSynthesizer a(net, 123);
    ActivationSynthesizer b(net, 123);
    auto ta = a.synthesizeFixed16(1);
    auto tb = b.synthesizeFixed16(1);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); i++)
        EXPECT_EQ(ta.flat()[i], tb.flat()[i]);
}

TEST(ActivationSynth, SeedChangesStream)
{
    auto net = makeTinyNetwork();
    ActivationSynthesizer a(net, 1);
    ActivationSynthesizer b(net, 2);
    auto ta = a.synthesizeFixed16(1);
    auto tb = b.synthesizeFixed16(1);
    size_t diff = 0;
    for (size_t i = 0; i < ta.size(); i++)
        if (ta.flat()[i] != tb.flat()[i])
            diff++;
    EXPECT_GT(diff, ta.size() / 4);
}

TEST(ActivationSynth, TrimmedPairsWithRaw)
{
    // Table V comparisons need the trimmed stream to be exactly the
    // raw stream under the layer mask.
    auto net = makeAlexNet();
    ActivationSynthesizer synth(net);
    for (int layer = 1; layer < 3; layer++) {
        auto raw = synth.synthesizeFixed16(layer);
        auto trimmed = synth.synthesizeFixed16Trimmed(layer);
        int anchor = synth.fixed16Params(layer).anchorLsb;
        uint16_t mask = net.layers[layer].precisionWindow(anchor).mask();
        for (size_t i = 0; i < raw.size(); i++)
            EXPECT_EQ(trimmed.flat()[i],
                      static_cast<uint16_t>(raw.flat()[i] & mask));
    }
}

TEST(ActivationSynth, HitsTableIStatistics16Bit)
{
    // The ReLU layers' streams must reproduce the calibration
    // targets: zero fraction and NZ essential-bit content.
    for (const auto &net :
         {makeAlexNet(), makeVggM(), makeVgg19()}) {
        ActivationSynthesizer synth(net);
        double nz_sum = 0.0;
        double zero_sum = 0.0;
        int layers = 0;
        // Skip layer 0: its input is the image, not ReLU output.
        for (size_t i = 1; i < std::min<size_t>(4, net.layers.size());
             i++) {
            auto t = synth.synthesizeFixed16(static_cast<int>(i));
            nz_sum += fixedpoint::essentialBitFractionNonZero(t.flat(),
                                                              16);
            zero_sum += fixedpoint::zeroFraction(t.flat());
            layers++;
        }
        EXPECT_NEAR(nz_sum / layers, net.targets.nz16, 0.02)
            << net.name;
        EXPECT_NEAR(zero_sum / layers, net.targets.zeroFraction16(),
                    0.02)
            << net.name;
    }
}

TEST(ActivationSynth, HitsTableIStatistics8Bit)
{
    for (const auto &net : {makeAlexNet(), makeVggS()}) {
        ActivationSynthesizer synth(net);
        auto t = synth.synthesizeQuant8(1);
        for (uint16_t v : t.flat())
            EXPECT_LE(v, 255);
        EXPECT_NEAR(fixedpoint::essentialBitFractionNonZero(t.flat(), 8),
                    net.targets.nz8, 0.02)
            << net.name;
        EXPECT_NEAR(fixedpoint::zeroFraction(t.flat()),
                    net.targets.zeroFraction8(), 0.02)
            << net.name;
    }
}

TEST(ActivationSynth, FirstLayerIsImageLike)
{
    auto net = makeAlexNet();
    ActivationSynthesizer synth(net);
    auto image = synth.synthesizeFixed16(0);
    // Dense: nearly no zeros (CVN cannot skip layer 1, Section II).
    EXPECT_LT(fixedpoint::zeroFraction(image.flat()),
              2.5 * kImageZeroFraction);
    // Values fill the layer's precision window.
    double nz = fixedpoint::essentialBitFractionNonZero(image.flat(),
                                                        16);
    EXPECT_GT(nz, 0.2); // Much denser than the ReLU streams.
}

TEST(ActivationSynth, FcFrontSkipsImageOverride)
{
    // An FC-selected network starts at fc6, whose input is a pooled
    // ReLU output, not the image: the first-layer density override
    // must not apply, so the stream keeps the network's Table I zero
    // fraction.
    auto net = makeAlexNet(LayerSelect::Fc);
    ASSERT_EQ(net.layers.front().kind, LayerKind::FullyConnected);
    ActivationSynthesizer synth(net);
    EXPECT_NEAR(synth.fixed16Params(0).zeroFraction,
                net.targets.zeroFraction16(), 1e-12);
    auto stream = synth.synthesizeFixed16(0);
    EXPECT_EQ(stream.sizeX(), 1);
    EXPECT_EQ(stream.sizeY(), 1);
    EXPECT_EQ(stream.sizeI(), 9216);
    EXPECT_GT(fixedpoint::zeroFraction(stream.flat()), 0.3);

    // A conv-front network keeps the image-like layer 0 (the
    // existing behavior, byte-identical to the conv-only zoo).
    auto conv_net = makeAlexNet(LayerSelect::All);
    ActivationSynthesizer conv_synth(conv_net);
    EXPECT_DOUBLE_EQ(conv_synth.fixed16Params(0).zeroFraction,
                     kImageZeroFraction);
}

TEST(ActivationSynth, TrimRemovesRoughlyTableVBudget)
{
    // The essential-bit content removed by trimming should be near
    // the network's software-guidance budget.
    auto net = makeVggM();
    ActivationSynthesizer synth(net);
    double raw_bits = 0.0;
    double trim_bits = 0.0;
    for (int i = 1; i < 4; i++) {
        auto raw = synth.synthesizeFixed16(i);
        auto trim = synth.synthesizeFixed16Trimmed(i);
        for (uint16_t v : raw.flat())
            raw_bits += fixedpoint::essentialBits(v);
        for (uint16_t v : trim.flat())
            trim_bits += fixedpoint::essentialBits(v);
    }
    double removed = 1.0 - trim_bits / raw_bits;
    EXPECT_NEAR(removed, net.targets.softwareBenefit, 0.06);
}

TEST(ActivationSynth, ValuesFitSixteenBitWindow)
{
    auto net = makeVgg19(); // p == 13: tightest window fit.
    ActivationSynthesizer synth(net);
    for (int i : {0, 8, 15}) {
        const auto &params = synth.fixed16Params(i);
        EXPECT_LE(params.anchorLsb + params.precisionBits, 16);
        auto t = synth.synthesizeFixed16(i);
        (void)t; // Construction would panic on overflow.
    }
}

TEST(SynthesizeFilters, DeterministicAndBounded)
{
    auto layer = makeTinyNetwork().layers[0];
    auto f1 = synthesizeFilters(layer, 42, 100);
    auto f2 = synthesizeFilters(layer, 42, 100);
    ASSERT_EQ(f1.size(), static_cast<size_t>(layer.numFilters));
    for (size_t f = 0; f < f1.size(); f++) {
        for (size_t i = 0; i < f1[f].size(); i++) {
            int16_t w = f1[f].flat()[i];
            EXPECT_EQ(w, f2[f].flat()[i]);
            EXPECT_GE(w, -100);
            EXPECT_LE(w, 100);
        }
    }
}

} // namespace
} // namespace dnn
} // namespace pra
