/**
 * @file
 * Tests for the term-count models behind Figures 2 and 3 and the
 * "terms" engine that prices Figure 2's series.
 */

#include <gtest/gtest.h>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/analytic/term_count.h"
#include "models/engines.h"
#include "sim/sweep.h"

namespace pra {
namespace models {
namespace {

/** Figure 2's series of one network, relative to DaDN's terms. */
struct RelativeTerms
{
    double zn = 0.0;
    double cvn = 0.0;
    double stripes = 0.0;
    double praFp16 = 0.0;
    double praRed = 0.0;
};

/** Each series priced by its "terms" engine through the sweep. */
std::vector<RelativeTerms>
relativeTerms(const std::vector<dnn::Network> &nets,
              const sim::SampleSpec &sample)
{
    std::vector<sim::EngineSelection> engines;
    for (const char *series :
         {"dadn", "zn", "cvn", "stripes", "pra", "pra-red"})
        engines.push_back({"terms", {{"series", series}}});
    sim::SweepOptions options;
    options.sample = sample;
    auto results = sim::runSweep(nets, engines, builtinEngines(), options);
    std::vector<RelativeTerms> rel;
    for (size_t n = 0; n < nets.size(); n++) {
        const sim::NetworkResult *row = &results[n * engines.size()];
        double dadn = row[0].totalCycles();
        rel.push_back({row[1].totalCycles() / dadn,
                       row[2].totalCycles() / dadn,
                       row[3].totalCycles() / dadn,
                       row[4].totalCycles() / dadn,
                       row[5].totalCycles() / dadn});
    }
    return rel;
}

TEST(TermCount, DadnCountsSixteenPerProduct)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[0];
    sim::LayerWorkload raw(synth.synthesizeFixed16(0));
    sim::LayerWorkload trimmed(synth.synthesizeFixed16Trimmed(0));
    auto counts = countLayerTerms16(layer, raw, trimmed, true,
                                    sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.dadn, 16.0 * layer.products());
}

TEST(TermCount, StripesCountsPrecisionPerProduct)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[1]; // p == 7.
    sim::LayerWorkload raw(synth.synthesizeFixed16(1));
    sim::LayerWorkload trimmed(synth.synthesizeFixed16Trimmed(1));
    auto counts = countLayerTerms16(layer, raw, trimmed, false,
                                    sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.stripes,
                     static_cast<double>(layer.profiledPrecision) *
                         layer.products());
}

TEST(TermCount, FirstLayerCvnEqualsDadn)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[0];
    sim::LayerWorkload raw(synth.synthesizeFixed16(0));
    sim::LayerWorkload trimmed(synth.synthesizeFixed16Trimmed(0));
    auto first = countLayerTerms16(layer, raw, trimmed, true,
                                   sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(first.cvn, first.dadn);
    auto later = countLayerTerms16(layer, raw, trimmed, false,
                                   sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(later.cvn, later.zn);
}

TEST(TermCount, CvnSkipsZerosOfAnFcOnlyNetwork)
{
    // The first-layer rule covers the dense image input of a leading
    // conv layer. An FC-selected network starts at pooled ReLU
    // outputs, so CVN skips their zeros exactly like ZN.
    for (const dnn::Network &net :
         {dnn::makeTinyNetwork(dnn::LayerSelect::Fc),
          dnn::makeAlexNet(dnn::LayerSelect::Fc)}) {
        dnn::ActivationSynthesizer synth(net);
        auto run = [&](const char *series) {
            return builtinEngines()
                .create("terms", {{"series", series}})
                ->runNetwork(net, synth, sim::AccelConfig{},
                             sim::SampleSpec{0});
        };
        sim::NetworkResult cvn = run("cvn");
        sim::NetworkResult zn = run("zn");
        ASSERT_EQ(cvn.layers.size(), zn.layers.size());
        for (size_t l = 0; l < zn.layers.size(); l++)
            EXPECT_EQ(cvn.layers[l].cycles, zn.layers[l].cycles)
                << net.name << "/" << zn.layers[l].layerName;
        EXPECT_LT(cvn.totalCycles(), run("dadn").totalCycles())
            << net.name;
    }
}

TEST(TermCount, ZeroInputZeroesValueBasedCounts)
{
    auto net = dnn::makeTinyNetwork();
    const auto &layer = net.layers[0];
    sim::LayerWorkload zeros(dnn::NeuronTensor(
        layer.inputX, layer.inputY, layer.inputChannels));
    auto counts = countLayerTerms16(layer, zeros, zeros, false,
                                    sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.zn, 0.0);
    EXPECT_DOUBLE_EQ(counts.praRaw, 0.0);
    EXPECT_DOUBLE_EQ(counts.praTrimmed, 0.0);
    EXPECT_GT(counts.dadn, 0.0);
    EXPECT_GT(counts.stripes, 0.0);
}

TEST(TermCount, OrderingInvariants)
{
    // PRA-red <= PRA-fp16 <= 16/p * stripes ... and everything is
    // bounded by the DaDN baseline.
    const std::vector<dnn::Network> nets = {dnn::makeAlexNet(),
                                            dnn::makeVggM()};
    auto rels = relativeTerms(nets, sim::SampleSpec{64});
    for (size_t n = 0; n < nets.size(); n++) {
        const dnn::Network &net = nets[n];
        const RelativeTerms &rel = rels[n];
        EXPECT_GT(rel.praRed, 0.0) << net.name;
        EXPECT_LE(rel.praRed, rel.praFp16) << net.name;
        EXPECT_LT(rel.praFp16, rel.stripes) << net.name;
        EXPECT_LT(rel.stripes, 1.0) << net.name;
        EXPECT_LE(rel.zn, rel.cvn) << net.name;
        EXPECT_LT(rel.cvn, 1.0) << net.name;
        // PRA beats pure zero skipping (the paper's headline claim).
        EXPECT_LT(rel.praFp16, rel.zn) << net.name;
    }
}

TEST(TermCount, MatchesPaperFigure2Magnitudes)
{
    // Section II: PRA-fp16 ~10%, PRA-red ~8%, STR ~53%, ZN ~39%
    // on average. Allow generous tolerances: these are shape checks.
    std::vector<dnn::Network> nets = dnn::makeAllNetworks();
    double pra_fp16 = 0.0;
    double pra_red = 0.0;
    double stripes = 0.0;
    for (const RelativeTerms &rel :
         relativeTerms(nets, sim::SampleSpec{24})) {
        pra_fp16 += rel.praFp16;
        pra_red += rel.praRed;
        stripes += rel.stripes;
    }
    pra_fp16 /= nets.size();
    pra_red /= nets.size();
    stripes /= nets.size();
    EXPECT_NEAR(pra_fp16, 0.10, 0.05);
    EXPECT_NEAR(pra_red, 0.08, 0.04);
    EXPECT_NEAR(stripes, 0.53, 0.12);
}

TEST(TermCount, QuantizedOrderingAndMagnitudes)
{
    // Figure 3: zero skipping removes ~30%, PRA up to ~71%.
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto rel = countNetworkTerms8(net, synth, sim::SampleSpec{48});
    EXPECT_LT(rel.pra, rel.zeroSkip);
    EXPECT_LT(rel.zeroSkip, 1.0);
    EXPECT_GT(rel.pra, 0.1);
    EXPECT_LT(rel.pra, 0.6);
}

TEST(TermCount, SamplingApproximatesFullCount)
{
    const std::vector<dnn::Network> nets = {dnn::makeTinyNetwork()};
    RelativeTerms full = relativeTerms(nets, sim::SampleSpec{0})[0];
    RelativeTerms sampled = relativeTerms(nets, sim::SampleSpec{8})[0];
    EXPECT_NEAR(sampled.praFp16 / full.praFp16, 1.0, 0.15);
    EXPECT_NEAR(sampled.zn / full.zn, 1.0, 0.15);
}

} // namespace
} // namespace models
} // namespace pra
