/**
 * @file
 * Pragmatic tile with pallet-level neuron lane synchronization
 * (paper Sections V-A3, V-A4, V-B): simulateLayerPalletSync, declared
 * in pragmatic_engine.h. NM fetch of the next step overlaps with
 * processing of the current one; the residue shows up as stall
 * cycles (Section V-A4). Every per-block accumulator is an exact
 * integer, so block partials combined in block order equal the
 * serial path bit for bit.
 */

#include "models/pragmatic/pragmatic_engine.h"

#include <algorithm>
#include <vector>

#include "models/pragmatic/brick_cost.h"
#include "sim/nm_model.h"
#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

/**
 * Exact per-block accumulators: every field is an integer (term
 * counts sum set bits), so partials combined in block order equal
 * the serial accumulation bit for bit.
 */
struct PalletPartial
{
    int64_t processCycles = 0;
    int64_t stallCycles = 0;
    int64_t terms = 0;
};

} // namespace

sim::LayerResult
simulateLayerPalletSync(const dnn::LayerSpec &layer,
                        const sim::LayerWorkload &workload,
                        const sim::AccelConfig &accel,
                        const PragmaticConfig &config,
                        const sim::SampleSpec &sample,
                        const util::InnerExecutor &exec)
{
    sim::LayerTiling tiling(layer, accel);
    sim::SamplePlan plan = sim::planSample(tiling.numPallets(), sample);
    PRA_CHECK(!plan.indices.empty(),
                         "pallet sync: layer has no pallets");

    const int64_t num_sets = tiling.numSynapseSets();
    BrickCostContext ctx(tiling, workload, config.firstStageBits);
    const BrickCostModel &costs = ctx.costs();
    const std::vector<sim::SynapseSetCoord> &set_coords =
        ctx.setCoords();

    const int64_t num_units = static_cast<int64_t>(plan.indices.size());
    const int blocks = exec.blockCount(num_units);
    std::vector<PalletPartial> partials(
        static_cast<size_t>(std::max(blocks, 1)));

    // Pallets are independent: the fetch/process overlap window resets
    // at a pallet boundary, so contiguous pallet blocks accumulate
    // exact partials that combine to the serial result.
    exec.forEachBlock(blocks, [&](int block) {
        auto [lo, hi] = util::InnerExecutor::blockRange(num_units,
                                                        blocks, block);
        PalletPartial acc;
        sim::NmOverlapTracker nm;
        std::vector<sim::WindowCoord> col_coords(
            static_cast<size_t>(accel.windowsPerPallet));
        for (int64_t pi = lo; pi < hi; pi++) {
            int64_t pallet = plan.indices[static_cast<size_t>(pi)];
            // Window coordinates are set-independent; resolve the
            // pallet's active columns once (they are the contiguous
            // prefix — only the layer's last pallet is partial).
            const int active = tiling.windowsInPallet(pallet);
            for (int c = 0; c < active; c++)
                col_coords[static_cast<size_t>(c)] = tiling.windowCoord(
                    tiling.windowIndex(pallet, c));
            // Fetch of step (p, s+1) overlaps processing of (p, s);
            // the previous step's processing time hides the current
            // fetch.
            int64_t prev_process = 0;
            for (int64_t s = 0; s < num_sets; s++) {
                int max_cycles = 0;
                for (int c = 0; c < active; c++) {
                    BrickCostModel::Cost cost = costs.brick(
                        col_coords[static_cast<size_t>(c)],
                        set_coords[static_cast<size_t>(s)]);
                    max_cycles = std::max(max_cycles, cost.cycles);
                    acc.terms += cost.terms;
                }
                // Even an all-zero pallet step holds the pipeline for
                // the SB read cycle.
                int64_t set_cycles = std::max(1, max_cycles);
                if (config.modelNmStalls) {
                    int64_t fetch =
                        sim::nmFetchCycles(tiling, pallet, s);
                    acc.stallCycles += nm.step(prev_process, fetch);
                }
                acc.processCycles += set_cycles;
                prev_process = set_cycles;
            }
        }
        partials[static_cast<size_t>(block)] = acc;
    });

    PalletPartial total;
    for (const PalletPartial &partial : partials) {
        total.processCycles += partial.processCycles;
        total.stallCycles += partial.stallCycles;
        total.terms += partial.terms;
    }

    sim::LayerResult result;
    result.layerName = layer.name;
    result.sampleScale = plan.scale;
    double passes = static_cast<double>(tiling.passes());
    result.cycles = passes * plan.scale *
                    static_cast<double>(total.processCycles +
                                        total.stallCycles);
    result.nmStallCycles = passes * plan.scale *
                           static_cast<double>(total.stallCycles);
    result.effectualTerms = plan.scale *
                            static_cast<double>(total.terms) *
                            layer.numFilters;
    // One SB read per pallet step: the same count DaDN performs
    // (Section V-E's "accessed the same number of times" baseline).
    result.sbReadSteps = passes * static_cast<double>(tiling.numPallets()) *
                         static_cast<double>(num_sets);
    return result;
}

} // namespace models
} // namespace pra
