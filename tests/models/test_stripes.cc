/**
 * @file
 * Tests for the Stripes baseline engine and its serial datapath.
 */

#include <gtest/gtest.h>

#include "dnn/model_zoo.h"
#include "dnn/activation_synth.h"
#include "models/stripes/stripes.h"
#include "sim/tiling.h"
#include "support/engines.h"
#include "util/random.h"

namespace pra {
namespace models {
namespace {

TEST(Stripes, SerialMultiplyMatchesProductWithinWindow)
{
    util::Xoshiro256 rng(0x57a1);
    for (int trial = 0; trial < 5000; trial++) {
        int precision = 1 + static_cast<int>(rng.nextBounded(16));
        auto synapse =
            static_cast<int16_t>(rng.nextInRange(-32768, 32767));
        auto neuron = static_cast<uint16_t>(
            rng.nextBounded(1u << precision));
        EXPECT_EQ(serialMultiply(synapse, neuron, precision),
                  static_cast<int64_t>(synapse) * neuron);
    }
}

TEST(Stripes, SerialMultiplyWithAnchoredWindow)
{
    // A value whose essential bits live in [lsb, lsb+p-1] multiplies
    // exactly when the window is anchored there.
    int lsb = 3;
    int precision = 6;
    uint16_t neuron = static_cast<uint16_t>(0b101101 << lsb);
    EXPECT_EQ(serialMultiply(100, neuron, precision, lsb),
              100LL * neuron);
}

TEST(Stripes, SerialMultiplyTruncatesOutsideWindow)
{
    // Bits above the window are not processed: Stripes depends on the
    // profiled precision being sufficient.
    uint16_t neuron = 0b1000'0001; // bit 7 outside a 4-bit window.
    EXPECT_EQ(serialMultiply(10, neuron, 4, 0), 10);
}

TEST(Stripes, LayerCyclesFormula)
{
    auto layer = dnn::makeAlexNet().layers[1]; // p == 8.
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    double expected = static_cast<double>(tiling.passes()) *
                      static_cast<double>(tiling.numPallets()) *
                      static_cast<double>(tiling.numSynapseSets()) * 8.0;
    EXPECT_DOUBLE_EQ(stripesCycles(layer, 8), expected);
}

TEST(Stripes, IdealSpeedupSixteenOverP)
{
    // For a layer whose window count is a multiple of 16, speedup
    // over DaDN is exactly 16/p (Section I).
    dnn::LayerSpec layer;
    layer.name = "even";
    layer.inputX = 19;
    layer.inputY = 19;
    layer.inputChannels = 32;
    layer.filterX = 4;
    layer.filterY = 4;
    layer.numFilters = 256;
    layer.stride = 1;
    layer.pad = 0;
    layer.profiledPrecision = 8;
    ASSERT_EQ(layer.windows() % 16, 0); // 16x16 windows.
    EXPECT_DOUBLE_EQ(dadnCycles(layer) / stripesCycles(layer, 8),
                     16.0 / 8.0);
}

TEST(Stripes, PartialPalletsLoseSomeThroughput)
{
    // With windows not divisible by 16 the ceil() costs Stripes a
    // little, exactly as in hardware.
    auto layer = dnn::makeAlexNet().layers[2]; // 13x13 windows.
    double speedup = dadnCycles(layer) / stripesCycles(layer, 8);
    EXPECT_LT(speedup, 2.0);
    EXPECT_GT(speedup, 1.8);
}

TEST(Stripes, RunUsesProfiledPrecisions)
{
    auto net = dnn::makeAlexNet();
    auto result = builtinEngines().create("stripes")->runNetwork(
        net, dnn::ActivationSynthesizer(net), sim::AccelConfig{},
        sim::SampleSpec{0});
    ASSERT_EQ(result.layers.size(), 5u);
    // conv3 (p == 5) must be relatively faster than conv1 (p == 9).
    EXPECT_DOUBLE_EQ(result.layers[2].cycles,
                     stripesCycles(net.layers[2], 5));
    EXPECT_DOUBLE_EQ(result.layers[0].cycles,
                     stripesCycles(net.layers[0], 9));
}

TEST(Stripes, PrecisionKnobOverridesEveryLayer)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    auto run = [&](const char *precision) {
        return builtinEngines()
            .create("stripes", {{"precision", precision}})
            ->runNetwork(net, synth, sim::AccelConfig{},
                         sim::SampleSpec{0})
            .totalCycles();
    };
    EXPECT_DOUBLE_EQ(run("8") / run("4"), 2.0);
}

TEST(Stripes, PrecisionBoundsChecked)
{
    auto layer = dnn::makeTinyNetwork().layers[0];
    EXPECT_DEATH(stripesLayerResult(layer, sim::AccelConfig{}, 0),
                 "precision");
    EXPECT_DEATH(stripesLayerResult(layer, sim::AccelConfig{}, 17),
                 "precision");
    EXPECT_DEATH(builtinEngines().create("stripes",
                                         {{"precision", "17"}}),
                 "precision must be in 0..16");
}

/** Stripes never beats 16/p nor loses to DaDN across precisions. */
class StripesPrecisions : public ::testing::TestWithParam<int>
{
};

TEST_P(StripesPrecisions, SpeedupBounded)
{
    int p = GetParam();
    for (const auto &layer : dnn::makeVggM().layers) {
        double speedup = dadnCycles(layer) / stripesCycles(layer, p);
        EXPECT_LE(speedup, 16.0 / p + 1e-9);
        EXPECT_GE(speedup, 16.0 / p * 0.5); // Pallet rounding bound.
    }
}

INSTANTIATE_TEST_SUITE_P(Precisions, StripesPrecisions,
                         ::testing::Values(1, 4, 8, 12, 16));

} // namespace
} // namespace models
} // namespace pra
