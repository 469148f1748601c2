/**
 * @file
 * Tests for the engine registry and the parallel sweep driver.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/analytic/term_count.h"
#include "models/engines.h"
#include "sim/sweep.h"
#include "support/grid_oracle.h"

namespace pra {
namespace sim {
namespace {

SweepOptions
tinyOptions(int threads)
{
    SweepOptions options;
    options.threads = threads;
    options.sample.maxUnits = 2;
    return options;
}

void
expectSameResults(const std::vector<NetworkResult> &expected,
                  const std::vector<NetworkResult> &actual,
                  const std::string &what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (size_t i = 0; i < expected.size(); i++) {
        EXPECT_EQ(expected[i].networkName, actual[i].networkName)
            << what;
        EXPECT_EQ(expected[i].engineName, actual[i].engineName)
            << what;
        ASSERT_EQ(expected[i].layers.size(), actual[i].layers.size())
            << what;
        for (size_t l = 0; l < expected[i].layers.size(); l++) {
            const auto &a = expected[i].layers[l];
            const auto &b = actual[i].layers[l];
            EXPECT_EQ(a.cycles, b.cycles) << what;
            EXPECT_EQ(a.effectualTerms, b.effectualTerms) << what;
            EXPECT_EQ(a.nmStallCycles, b.nmStallCycles) << what;
            EXPECT_EQ(a.sbReadSteps, b.sbReadSteps) << what;
            EXPECT_EQ(a.sampleScale, b.sampleScale) << what;
        }
    }
}

std::vector<EngineSelection>
allKindsGrid()
{
    // The frozen historical five-kind "--engines=all" expansion (the
    // committed smoke goldens pin it), not every registered kind.
    return models::coreEngineGrid();
}

TEST(EngineRegistry, ExposesAllRegisteredEngines)
{
    const auto &registry = models::builtinEngines();
    EXPECT_EQ(registry.size(), 7u);
    for (const char *kind :
         {"dadn", "stripes", "dynamic_stripes", "pragmatic",
          "pragmatic-col", "laconic", "terms"}) {
        EXPECT_TRUE(registry.has(kind)) << kind;
        auto engine = registry.create(kind);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->kind(), kind);
        EXPECT_FALSE(engine->name().empty());
    }
}

TEST(EngineRegistry, KnobsSelectVariants)
{
    const auto &registry = models::builtinEngines();
    EXPECT_EQ(registry.create("pragmatic", {{"bits", "4"}})->name(),
              "PRA-4b");
    EXPECT_EQ(registry
                  .create("pragmatic-col",
                          {{"bits", "2"}, {"ssr", "1"}})
                  ->name(),
              "PRA-2b-1R");
    EXPECT_EQ(registry.create("terms", {{"series", "zn"}})->name(),
              "terms-zn");
    EXPECT_EQ(registry.create("stripes", {{"precision", "8"}})->name(),
              "Stripes-p8");
}

TEST(EngineRegistry, ParseEngineSpec)
{
    EngineSelection sel =
        parseEngineSpec("pragmatic-col:bits=2:ssr=4");
    EXPECT_EQ(sel.kind, "pragmatic-col");
    ASSERT_EQ(sel.knobs.size(), 2u);
    EXPECT_EQ(sel.knobs.at("bits"), "2");
    EXPECT_EQ(sel.knobs.at("ssr"), "4");

    EngineSelection bare = parseEngineSpec("dadn");
    EXPECT_EQ(bare.kind, "dadn");
    EXPECT_TRUE(bare.knobs.empty());
}

TEST(EngineRegistry, ParseEngines)
{
    EXPECT_EQ(models::parseEngines("paper").size(),
              models::paperEngineGrid().size());
    EXPECT_EQ(models::parseEngines("all").size(),
              models::coreEngineGrid().size());
    auto picked = models::parseEngines("dadn,,pragmatic:bits=3");
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[0].kind, "dadn");
    EXPECT_EQ(picked[1].knobs.at("bits"), "3");
    EXPECT_DEATH(models::parseEngines(","), "no engines selected");
}

TEST(EngineRegistryDeathTest, RejectsUnknownKindAndKnob)
{
    const auto &registry = models::builtinEngines();
    EXPECT_DEATH(registry.create("warp-drive"), "unknown engine");
    EXPECT_DEATH(registry.create("dadn", {{"bogus", "1"}}),
                 "unknown knob");
}

TEST(TermsEngine, TrimmingMatchesSynthesizer)
{
    // The terms engine's pra-red counts must agree with counts taken
    // on the synthesizer's own trimmed stream, and so must the layer
    // entry point, which re-derives the trimmed stream from the raw
    // one (same mask, same anchor).
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    SampleSpec sample{4};
    auto engine = models::builtinEngines().create(
        "terms", {{"series", "pra-red"}});
    NetworkResult via_engine =
        engine->runNetwork(net, synth, AccelConfig{}, sample);

    double expected = 0.0;
    for (size_t i = 0; i < net.layers.size(); i++) {
        LayerWorkload raw(synth.synthesizeFixed16(static_cast<int>(i)));
        LayerWorkload trimmed(
            synth.synthesizeFixed16Trimmed(static_cast<int>(i)));
        auto counts = models::countLayerTerms16(net.layers[i], raw,
                                                trimmed, i == 0, sample);
        expected += counts.praTrimmed;
        // The layer entry point masks the raw stream itself.
        EXPECT_EQ(engine->simulateLayer(net.layers[i], raw, AccelConfig{},
                                        sample, util::InnerExecutor())
                      .cycles,
                  counts.praTrimmed);
    }
    EXPECT_DOUBLE_EQ(via_engine.totalCycles(), expected);
}

TEST(Sweep, MatchesUncachedSerialOracle)
{
    // Two zoo networks, every engine kind: the grid's shared
    // workload cache and pool only share synthesis and schedule
    // cells, so results must be bit-identical, field by field, to
    // pricing each cell serially on uncached workloads.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork(),
                                          dnn::makeAlexNet()};
    auto grid = allKindsGrid();
    auto oracle = uncachedSweep(networks, grid, models::builtinEngines(),
                                tinyOptions(1));
    for (int threads : {1, 4})
        expectSameResults(oracle,
                          runSweep(networks, grid,
                                   models::builtinEngines(),
                                   tinyOptions(threads)),
                          "threads=" + std::to_string(threads));
}

TEST(Sweep, PropagatedModeMatchesUncachedOracle)
{
    // Propagated-mode invariants: the forward-pass workloads must be
    // bit-identical whether the chain is built once in the shared
    // cache and raced by four workers, or rebuilt per cell by the
    // serial uncached oracle, with or without block splits. The
    // network must be the full pipeline (pools + fc).
    std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All)};
    auto grid = allKindsGrid();
    SweepOptions base = tinyOptions(1);
    base.activations = ActivationMode::Propagated;
    const auto &registry = models::builtinEngines();
    auto oracle = uncachedSweep(networks, grid, registry, base);

    expectSameResults(oracle, runSweep(networks, grid, registry, base),
                      "propagated threads=1");
    SweepOptions par = base;
    par.threads = 4;
    expectSameResults(oracle, runSweep(networks, grid, registry, par),
                      "propagated threads=4");

    util::ThreadPool pool(4);
    for (int inner : {2, 3, 5})
        expectSameResults(oracle,
                          uncachedSweep(networks, grid, registry, base,
                                        util::InnerExecutor(&pool,
                                                            inner)),
                          "propagated inner=" + std::to_string(inner));
}

TEST(Sweep, PropagatedModeDiffersFromSyntheticDownstream)
{
    // The two modes share only the image input: layer 0 results
    // agree for value-dependent engines, downstream layers see
    // different (correlated) streams. DaDN is value-independent and
    // must agree everywhere.
    std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All)};
    std::vector<EngineSelection> grid = {
        {"dadn", {}},
        {"pragmatic", {{"bits", "2"}, {"trim", "0"}}},
    };
    SweepOptions synthetic = tinyOptions(1);
    SweepOptions propagated = tinyOptions(1);
    propagated.activations = ActivationMode::Propagated;
    auto s = runSweep(networks, grid, models::builtinEngines(),
                      synthetic);
    auto p = runSweep(networks, grid, models::builtinEngines(),
                      propagated);
    // DaDN: identical rows (geometry only).
    ASSERT_EQ(s[0].layers.size(), p[0].layers.size());
    for (size_t l = 0; l < s[0].layers.size(); l++)
        EXPECT_EQ(s[0].layers[l].cycles, p[0].layers[l].cycles);
    // PRA (untrimmed raw stream): layer 0 is the shared image.
    EXPECT_EQ(s[1].layers[0].cycles, p[1].layers[0].cycles);
    EXPECT_EQ(s[1].layers[0].effectualTerms,
              p[1].layers[0].effectualTerms);
    // Downstream, the propagated stream is the real conv1 output —
    // not the independently synthesized conv2 stream.
    EXPECT_NE(s[1].layers[1].effectualTerms,
              p[1].layers[1].effectualTerms);
}

TEST(Sweep, InvariantAcrossInnerThreadCounts)
{
    // Pallet-block splitting inside a cell must not change a bit:
    // compare the serial sweep against a small grid (fewer cells than
    // workers, so the automatic policy actually splits) and against
    // forced block counts.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {
        {"pragmatic", {{"bits", "2"}}},
        {"pragmatic-col", {{"bits", "2"}, {"ssr", "1"}}}};
    const auto &registry = models::builtinEngines();
    auto base = runSweep(networks, grid, registry, tinyOptions(1));
    expectSameResults(base,
                      runSweep(networks, grid, registry, tinyOptions(4)),
                      "automatic split");
    util::ThreadPool pool(4);
    for (int inner : {2, 3, 5})
        expectSameResults(base,
                          uncachedSweep(networks, grid, registry,
                                        tinyOptions(1),
                                        util::InnerExecutor(&pool,
                                                            inner)),
                          "inner=" + std::to_string(inner));
}

TEST(Sweep, CsvDeterministicallyOrdered)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {
        {"stripes", {}}, {"dadn", {}}, {"pragmatic", {{"bits", "2"}}}};

    auto seq = runSweep(networks, grid, models::builtinEngines(),
                        tinyOptions(1));
    auto par = runSweep(networks, grid, models::builtinEngines(),
                        tinyOptions(4));
    std::ostringstream csv_seq, csv_par;
    writeSweepCsv(csv_seq, seq);
    writeSweepCsv(csv_par, par);
    // Byte-identical dumps regardless of completion order...
    EXPECT_EQ(csv_seq.str(), csv_par.str());

    // ...and rows follow grid order, not alphabetical or completion
    // order: stripes, dadn, pragmatic.
    std::istringstream lines(csv_seq.str());
    std::string header, row1, row2, row3;
    std::getline(lines, header);
    std::getline(lines, row1);
    std::getline(lines, row2);
    std::getline(lines, row3);
    EXPECT_EQ(header.rfind("network,engine,cycles", 0), 0u);
    EXPECT_EQ(row1.rfind("Tiny,Stripes,", 0), 0u);
    EXPECT_EQ(row2.rfind("Tiny,DaDN,", 0), 0u);
    EXPECT_EQ(row3.rfind("Tiny,PRA-2b,", 0), 0u);
}

TEST(Sweep, FindResult)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}},
                                         {"stripes", {}}};
    auto results = runSweep(networks, grid, models::builtinEngines(),
                            tinyOptions(1));
    EXPECT_EQ(findResult(results, "Tiny", "Stripes").engineName,
              "Stripes");
    EXPECT_GT(findResult(results, "Tiny", "DaDN").totalCycles(), 0.0);
}

TEST(Sweep, PaperGridCoversHeadlineDesigns)
{
    auto grid = models::paperEngineGrid();
    // DaDN + Stripes + PRA-0b..4b + PRA-2b-1R.
    EXPECT_EQ(grid.size(), 8u);
    const auto &registry = models::builtinEngines();
    std::vector<std::string> names;
    for (const auto &sel : grid)
        names.push_back(registry.create(sel)->name());
    EXPECT_EQ(names.front(), "DaDN");
    EXPECT_EQ(names.back(), "PRA-2b-1R");
}

} // namespace
} // namespace sim
} // namespace pra
