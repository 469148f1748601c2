#include "models/dynamic_stripes/dynamic_stripes.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "dnn/activation_synth.h"
#include "fixedpoint/fixed_point.h"
#include "models/pragmatic/brick_cost.h"
#include "models/stripes/stripes.h"
#include "sim/operand_planes.h"
#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

/** Exact per-block accumulators (combine in block order). */
struct DsPartial
{
    int64_t processCycles = 0;
    int64_t terms = 0;
};

/**
 * The Diffy front end: each column's detector input is the absolute
 * spatial x-difference against the previous column (x == 0 keeps the
 * raw value). Magnitude codes, so the difference is taken on the
 * integer values.
 */
dnn::NeuronTensor
diffyTransform(const dnn::NeuronTensor &input)
{
    dnn::NeuronTensor out(input.sizeX(), input.sizeY(), input.sizeI());
    for (int y = 0; y < input.sizeY(); y++)
        for (int x = 0; x < input.sizeX(); x++)
            for (int i = 0; i < input.sizeI(); i++) {
                int v = input.at(x, y, i);
                if (x > 0)
                    v -= input.at(x - 1, y, i);
                out.at(x, y, i) = static_cast<uint16_t>(std::abs(v));
            }
    return out;
}

/**
 * Per-brick detector masks: the shared orMask plane when one
 * applies, else the same reduction over a zero-copy brick view
 * (bit-identical by construction — summarizeBrick is the single
 * reduction both paths share).
 */
class MaskSource
{
  public:
    MaskSource(const sim::LayerTiling &tiling,
               const dnn::NeuronTensor &src,
               const sim::BrickPlanes *planes)
        : tiling_(tiling), src_(src), planes_(planes)
    {
    }

    uint16_t
    mask(const sim::WindowCoord &w, const sim::SynapseSetCoord &s) const
    {
        if (planes_) {
            const dnn::LayerSpec &layer = tiling_.layer();
            int x = w.x * layer.stride - layer.pad + s.fx;
            int y = w.y * layer.stride - layer.pad + s.fy;
            if (x < 0 || x >= layer.inputX || y < 0 ||
                y >= layer.inputY)
                return 0;
            return planes_->orMask[planes_->index(
                x, y, s.brickI / dnn::kBrickSize)];
        }
        return sim::summarizeBrick(tiling_.gatherBrickView(src_, w, s))
            .orMask;
    }

  private:
    const sim::LayerTiling &tiling_;
    const dnn::NeuronTensor &src_;
    const sim::BrickPlanes *planes_;
};

} // namespace

DynamicStripesEngine::DynamicStripesEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs(
        "dynamic_stripes", knobs,
        {"granularity", "column-regs", "leading-bit", "diffy"});
    std::string granularity =
        sim::knobString(knobs, "granularity", "16");
    if (granularity == "layer") {
        layerWide_ = true;
    } else {
        // Divisibility against windowsPerPallet is a property of the
        // machine, checked when a layer is priced; positivity is a
        // property of the flag and fails here.
        groupColumns_ =
            static_cast<int>(sim::knobInt(knobs, "granularity", 16));
        if (groupColumns_ < 1)
            util::fatal("dynamic_stripes: granularity must be a "
                        "positive column count or \"layer\"");
    }
    columnRegisters_ =
        static_cast<int>(sim::knobInt(knobs, "column-regs", 0));
    if (columnRegisters_ < 0)
        util::fatal("dynamic_stripes: column-regs must be >= 0");
    leadingBit_ = sim::knobBool(knobs, "leading-bit", false);
    diffy_ = sim::knobBool(knobs, "diffy", false);
    if (layerWide_ && diffy_)
        util::fatal("dynamic_stripes: diffy needs runtime detection; "
                    "it cannot combine with granularity=layer");
    if (layerWide_ && columnRegisters_ > 0)
        util::fatal("dynamic_stripes: column-regs buffer runtime "
                    "groups; they cannot combine with "
                    "granularity=layer");
}

std::string
DynamicStripesEngine::name() const
{
    std::string n = layerWide_ ? "DS-layer"
                               : "DS-g" + std::to_string(groupColumns_);
    if (columnRegisters_ > 0)
        n += "-r" + std::to_string(columnRegisters_);
    if (leadingBit_)
        n += "-lb";
    if (diffy_)
        n += "-diffy";
    return n;
}

sim::InputStream
DynamicStripesEngine::inputStream() const
{
    // The layer-wide configuration is static (profiled precisions);
    // every runtime configuration reads the trimmed value stream its
    // detectors would see.
    return layerWide_ ? sim::InputStream::None
                      : sim::InputStream::Fixed16Trimmed;
}

sim::LayerResult
DynamicStripesEngine::simulateLayer(const dnn::LayerSpec &layer,
                                    const sim::LayerWorkload &workload,
                                    const sim::AccelConfig &accel,
                                    const sim::SampleSpec &sample,
                                    const util::InnerExecutor &exec) const
{
    if (layerWide_) {
        // Exactly Stripes at the profiled precision, or — leading-bit
        // only detection — at the top of the synthesis window (see
        // the header comment).
        int precision = layer.profiledPrecision;
        if (leadingBit_)
            precision = std::min(16, dnn::synthesisAnchor(layer) +
                                         layer.profiledPrecision);
        sim::LayerResult result =
            stripesLayerResult(layer, accel, precision);
        result.engineName = name();
        return result;
    }

    const int wpp = accel.windowsPerPallet;
    const int gc = groupColumns_;
    if (wpp % gc != 0)
        util::fatal("dynamic_stripes: granularity must be a positive "
                    "divisor of windowsPerPallet (" +
                    std::to_string(wpp) + "); got " +
                    std::to_string(gc));
    const int regs = columnRegisters_;

    sim::LayerTiling tiling(layer, accel);
    sim::SamplePlan plan = sim::planSample(tiling.numPallets(), sample);
    PRA_CHECK(!plan.indices.empty(),
              "dynamic_stripes: layer has no pallets");
    const int64_t num_sets = tiling.numSynapseSets();

    // The detector input: the raw stream, or its Diffy difference.
    // Diffy masks summarize a *different* tensor than the shared
    // workload, so they come from a local workload over the diffed
    // stream (its planes build on first use).
    std::optional<sim::LayerWorkload> diffed;
    if (diffy_)
        diffed.emplace(diffyTransform(workload.tensor()));
    const sim::LayerWorkload &detected = diffed ? *diffed : workload;
    BrickCostContext ctx(tiling, detected, kMaxFirstStageBits);
    MaskSource masks(tiling, detected.tensor(), ctx.planes());
    const std::vector<sim::SynapseSetCoord> &set_coords =
        ctx.setCoords();

    const int64_t num_units = static_cast<int64_t>(plan.indices.size());
    const int blocks = exec.blockCount(num_units);
    std::vector<DsPartial> partials(
        static_cast<size_t>(std::max(blocks, 1)));

    // Pallets are independent (the run-ahead window resets at a
    // pallet boundary), so contiguous pallet blocks accumulate exact
    // partials that combine to the serial result.
    exec.forEachBlock(blocks, [&](int block) {
        auto [lo, hi] = util::InnerExecutor::blockRange(num_units,
                                                        blocks, block);
        DsPartial acc;
        std::vector<sim::WindowCoord> col_coords(
            static_cast<size_t>(wpp));
        std::vector<int> group_prec(static_cast<size_t>(wpp / gc));
        std::vector<int64_t> finish(group_prec.size());
        std::vector<int64_t> ring(static_cast<size_t>(
            std::max(regs, 1)));
        for (int64_t pi = lo; pi < hi; pi++) {
            int64_t pallet = plan.indices[static_cast<size_t>(pi)];
            const int active = tiling.windowsInPallet(pallet);
            for (int c = 0; c < active; c++)
                col_coords[static_cast<size_t>(c)] = tiling.windowCoord(
                    tiling.windowIndex(pallet, c));
            // Groups past the active prefix have no columns (only the
            // layer's last pallet is partial) and never gate anyone.
            const int groups = (active + gc - 1) / gc;
            std::fill(finish.begin(), finish.end(), int64_t{0});
            std::fill(ring.begin(), ring.end(), int64_t{0});
            int64_t pallet_done = 0;
            for (int64_t s = 0; s < num_sets; s++) {
                const sim::SynapseSetCoord &sc =
                    set_coords[static_cast<size_t>(s)];
                const int real_lanes =
                    std::min(accel.neuronLanes,
                             layer.inputChannels - sc.brickI);
                for (int g = 0; g < groups; g++) {
                    const int first = g * gc;
                    const int last = std::min(first + gc, active);
                    uint16_t m = 0;
                    for (int c = first; c < last; c++)
                        m |= masks.mask(
                            col_coords[static_cast<size_t>(c)], sc);
                    const int p = fixedpoint::dynamicPrecision(
                        m, leadingBit_);
                    group_prec[static_cast<size_t>(g)] = p;
                    // Every member column streams the group's
                    // precision over the brick's real lanes.
                    acc.terms += static_cast<int64_t>(p) * real_lanes *
                                 (last - first);
                }
                if (regs == 0) {
                    // Lockstep: the pallet advances at its slowest
                    // group; even an all-zero step holds the
                    // pipeline for the SB read cycle.
                    int step = 0;
                    for (int g = 0; g < groups; g++)
                        step = std::max(
                            step, group_prec[static_cast<size_t>(g)]);
                    acc.processCycles += std::max(1, step);
                } else {
                    // Run-ahead: group g may start set s once the
                    // slowest group finished set s - regs (its
                    // register frees up then).
                    int64_t gate =
                        s >= regs
                            ? ring[static_cast<size_t>(s % regs)]
                            : 0;
                    int64_t slowest = 0;
                    for (int g = 0; g < groups; g++) {
                        size_t gi = static_cast<size_t>(g);
                        finish[gi] =
                            std::max(finish[gi], gate) +
                            std::max(1, group_prec[gi]);
                        slowest = std::max(slowest, finish[gi]);
                    }
                    ring[static_cast<size_t>(s % regs)] = slowest;
                    pallet_done = slowest;
                }
            }
            if (regs > 0)
                acc.processCycles += pallet_done;
        }
        partials[static_cast<size_t>(block)] = acc;
    });

    DsPartial total;
    for (const DsPartial &partial : partials) {
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
    result.effectualTerms = plan.scale *
                            static_cast<double>(total.terms) *
                            layer.numFilters;
    // One SB read per pallet step, as in every pallet-synced model.
    result.sbReadSteps = passes *
                         static_cast<double>(tiling.numPallets()) *
                         static_cast<double>(num_sets);
    return result;
}

} // namespace models
} // namespace pra
