#include "models/laconic/laconic.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "models/pragmatic/brick_cost.h"
#include "sim/operand_planes.h"
#include "sim/tiling.h"
#include "util/check.h"

namespace pra {
namespace models {

namespace {

/** Exact per-block accumulators (combine in block order). */
struct LaconicPartial
{
    int64_t processCycles = 0;
    int64_t terms = 0;
};

/**
 * Per-lane neuron popcounts of one brick: the shared per-lane plane
 * when one applies, else popcounts over a zero-copy brick view.
 * Fills @p out with the brick's real lanes and returns their count
 * (0 for a padding brick).
 */
class LanePopSource
{
  public:
    LanePopSource(const sim::LayerTiling &tiling,
                  const dnn::NeuronTensor &src,
                  const sim::LanePopPlanes *planes)
        : tiling_(tiling), src_(src), planes_(planes)
    {
    }

    int
    pops(const sim::WindowCoord &w, const sim::SynapseSetCoord &s,
         int real_lanes, uint8_t *out) const
    {
        if (planes_) {
            const dnn::LayerSpec &layer = tiling_.layer();
            int x = w.x * layer.stride - layer.pad + s.fx;
            int y = w.y * layer.stride - layer.pad + s.fy;
            if (x < 0 || x >= layer.inputX || y < 0 ||
                y >= layer.inputY)
                return 0;
            size_t base = planes_->index(
                x, y, s.brickI / dnn::kBrickSize, 0);
            std::copy_n(planes_->pop.data() + base,
                        static_cast<size_t>(real_lanes), out);
            return real_lanes;
        }
        auto view = tiling_.gatherBrickView(src_, w, s);
        for (size_t l = 0; l < view.size(); l++)
            out[l] = static_cast<uint8_t>(std::popcount(view[l]));
        return static_cast<int>(view.size());
    }

  private:
    const sim::LayerTiling &tiling_;
    const dnn::NeuronTensor &src_;
    const sim::LanePopPlanes *planes_;
};

} // namespace

LaconicEngine::LaconicEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("laconic", knobs, {});
}

sim::LayerResult
LaconicEngine::simulateLayer(const dnn::LayerSpec &layer,
                             const sim::LayerWorkload &workload,
                             const sim::AccelConfig &accel,
                             const sim::SampleSpec &sample,
                             const util::InnerExecutor &exec) const
{
    sim::LayerTiling tiling(layer, accel);
    sim::SamplePlan plan = sim::planSample(tiling.numPallets(), sample);
    PRA_CHECK(!plan.indices.empty(), "laconic: layer has no pallets");
    const int64_t num_sets = tiling.numSynapseSets();
    const int wpp = accel.windowsPerPallet;

    // Skipping the intermediate widths (bits = max) keeps the context
    // from touching the memoized cycle planes Laconic never reads.
    BrickCostContext ctx(tiling, workload, kMaxFirstStageBits);
    const std::vector<sim::SynapseSetCoord> &set_coords =
        ctx.setCoords();
    // Weight planes are lazy and unsynchronized: resolve them here,
    // before the pallet loop fans out across inner threads.
    const sim::WeightBrickPlanes &wgt = ctx.weightPlanes();
    const sim::LanePopPlanes *act_planes =
        accel.neuronLanes == dnn::kBrickSize ? &workload.lanePopPlanes()
                                             : nullptr;
    LanePopSource acts(tiling, workload.tensor(), act_planes);

    const int64_t num_units = static_cast<int64_t>(plan.indices.size());
    const int blocks = exec.blockCount(num_units);
    std::vector<LaconicPartial> partials(
        static_cast<size_t>(std::max(blocks, 1)));

    exec.forEachBlock(blocks, [&](int block) {
        auto [lo, hi] = util::InnerExecutor::blockRange(num_units,
                                                        blocks, block);
        LaconicPartial acc;
        std::vector<sim::WindowCoord> col_coords(
            static_cast<size_t>(wpp));
        std::vector<uint8_t> pops(
            static_cast<size_t>(accel.neuronLanes));
        for (int64_t pi = lo; pi < hi; pi++) {
            int64_t pallet = plan.indices[static_cast<size_t>(pi)];
            const int active = tiling.windowsInPallet(pallet);
            for (int c = 0; c < active; c++)
                col_coords[static_cast<size_t>(c)] = tiling.windowCoord(
                    tiling.windowIndex(pallet, c));
            for (int64_t s = 0; s < num_sets; s++) {
                const sim::SynapseSetCoord &sc =
                    set_coords[static_cast<size_t>(s)];
                const int real_lanes =
                    std::min(accel.neuronLanes,
                             layer.inputChannels - sc.brickI);
                const size_t widx = wgt.index(s, 0);
                int64_t step = 0;
                for (int c = 0; c < active; c++) {
                    int n = acts.pops(
                        col_coords[static_cast<size_t>(c)], sc,
                        real_lanes, pops.data());
                    for (int l = 0; l < n; l++) {
                        const int64_t a = pops[static_cast<size_t>(l)];
                        if (a == 0)
                            continue;
                        const size_t wl =
                            widx + static_cast<size_t>(l);
                        step = std::max(step, a * wgt.maxPop[wl]);
                        acc.terms += a * wgt.sumPop[wl];
                    }
                }
                // The one-cycle SB-read floor every pallet-synced
                // model shares.
                acc.processCycles += std::max<int64_t>(1, step);
            }
        }
        partials[static_cast<size_t>(block)] = acc;
    });

    LaconicPartial total;
    for (const LaconicPartial &partial : partials) {
        total.processCycles += partial.processCycles;
        total.terms += partial.terms;
    }

    sim::LayerResult result;
    result.layerName = layer.name;
    result.engineName = name();
    result.sampleScale = plan.scale;
    double passes = static_cast<double>(tiling.passes());
    result.cycles = passes * plan.scale *
                    static_cast<double>(total.processCycles);
    // wgtSumPop already sums every filter (hence every pass), so the
    // term total takes no passes or numFilters factor.
    result.effectualTerms =
        plan.scale * static_cast<double>(total.terms);
    result.sbReadSteps = passes *
                         static_cast<double>(tiling.numPallets()) *
                         static_cast<double>(num_sets);
    return result;
}

} // namespace models
} // namespace pra
