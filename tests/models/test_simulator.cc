/**
 * @file
 * Tests for driving Pragmatic through the engine registry: variant
 * names, whole-network runs on synthetic streams, and the design
 * orderings every driver relies on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "support/engines.h"

namespace pra {
namespace models {
namespace {

std::unique_ptr<sim::Engine>
engine(const std::string &kind, const sim::EngineKnobs &knobs = {})
{
    return builtinEngines().create(kind, knobs);
}

/** One network on its synthetic streams, 16 pallets per layer. */
sim::NetworkResult
run(const sim::Engine &engine, const dnn::Network &net,
    uint64_t seed = 0x5eed)
{
    dnn::ActivationSynthesizer synth(net, seed);
    return engine.runNetwork(net, synth, sim::AccelConfig{},
                             sim::SampleSpec{16});
}

TEST(Simulator, EngineNames)
{
    EXPECT_EQ(engine("pragmatic", {{"bits", "2"}})->name(), "PRA-2b");
    EXPECT_EQ(engine("pragmatic-col", {{"ssr", "1"}})->name(),
              "PRA-2b-1R");
    EXPECT_EQ(engine("pragmatic-col", {{"ssr", "0"}})->name(),
              "PRA-2b-idealR");
    EXPECT_EQ(engine("pragmatic-col", {{"ssr", "0"}, {"repr", "quant8"}})
                  ->name(),
              "PRA-2b-idealR-q8");
    EXPECT_EQ(engine("pragmatic", {{"trim", "0"}})->name(),
              "PRA-2b-notrim");
}

TEST(Simulator, RunsAllLayersDeterministically)
{
    auto net = dnn::makeTinyNetwork();
    auto pra = engine("pragmatic");
    auto r1 = run(*pra, net);
    auto r2 = run(*pra, net);
    ASSERT_EQ(r1.layers.size(), net.layers.size());
    EXPECT_DOUBLE_EQ(r1.totalCycles(), r2.totalCycles());
    EXPECT_EQ(r1.engineName, "PRA-2b");
}

TEST(Simulator, FasterThanDaDnOnRealisticStreams)
{
    auto net = dnn::makeTinyNetwork();
    auto pra = run(*engine("pragmatic"), net);
    auto base = run(*engine("dadn"), net);
    EXPECT_GT(pra.speedupOver(base), 1.0);
}

TEST(Simulator, TrimOnlyHelps)
{
    auto net = dnn::makeAlexNet();
    auto with = run(*engine("pragmatic"), net);
    auto without = run(*engine("pragmatic", {{"trim", "0"}}), net);
    EXPECT_LE(with.totalCycles(), without.totalCycles());
}

TEST(Simulator, ColumnSyncBeatsPalletSync)
{
    auto net = dnn::makeTinyNetwork();
    auto p = run(*engine("pragmatic"), net);
    auto c = run(*engine("pragmatic-col", {{"ssr", "1"}}), net);
    EXPECT_LE(c.totalCycles(), p.totalCycles() * 1.02);
}

TEST(Simulator, QuantizedRepresentationRuns)
{
    auto net = dnn::makeTinyNetwork();
    auto result = run(*engine("pragmatic", {{"repr", "quant8"}}), net);
    EXPECT_GT(result.totalCycles(), 0.0);
    // 8-bit codes: at most 8 essential bits per neuron, so PRA can't
    // be slower than half of DaDN's 16-bit-parallel pace.
    EXPECT_GT(result.speedupOver(run(*engine("dadn"), net)), 1.0);
}

TEST(Simulator, StripesQuant8PrecisionsAreInByteRange)
{
    // Stripes-q8 prices each layer at the bits its largest 8-bit
    // code needs: one Stripes precision in 1..8 per layer.
    auto net = dnn::makeAlexNet();
    auto result = run(*engine("stripes", {{"repr", "quant8"}}), net);
    ASSERT_EQ(result.layers.size(), net.layers.size());
    for (size_t i = 0; i < net.layers.size(); i++) {
        int precision = 0;
        for (int p = 1; p <= 16 && precision == 0; p++)
            if (stripesCycles(net.layers[i], p) ==
                result.layers[i].cycles)
                precision = p;
        EXPECT_GE(precision, 1) << net.layers[i].name;
        EXPECT_LE(precision, 8) << net.layers[i].name;
    }
    // Image layer codes span the full byte.
    EXPECT_EQ(result.layers[0].cycles, stripesCycles(net.layers[0], 8));
}

TEST(Simulator, SeedChangesWorkloadNotShape)
{
    auto net = dnn::makeTinyNetwork();
    auto pra = engine("pragmatic");
    auto ra = run(*pra, net);
    auto rb = run(*pra, net, 0xdead);
    // Different streams, but statistically similar cycle counts.
    EXPECT_NEAR(ra.totalCycles() / rb.totalCycles(), 1.0, 0.15);
}

TEST(Simulator, InvalidAccelConfigPanics)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    sim::AccelConfig bad;
    bad.tiles = 0;
    EXPECT_DEATH(engine("pragmatic")->runNetwork(net, synth, bad,
                                                 sim::SampleSpec{16}),
                 "invalid config");
}

} // namespace
} // namespace models
} // namespace pra
