/**
 * @file
 * Per-brick schedule-cycle and term-count resolution shared by the
 * pallet- and column-sync engines.
 *
 * Both engines fundamentally consume, per (window, synapse set), the
 * brick's PIP schedule length and its effectual-term (set-bit) count.
 * When the workload's packed brick planes apply (brick size == the
 * machine's neuron lanes), the term count is a single plane lookup
 * and the schedule length resolves from tables for *every*
 * first-stage width:
 *
 *   cycles(L=0) == orPop   (distinct oneffset positions),
 *   cycles(L=4) == maxPop  (busiest lane), and
 *   cycles(L=1..3)         from the workload's memoized cycle plane
 *                          (exact brickScheduleCycles per brick,
 *                          built once per (workload, L) by the
 *                          batched scheduleCyclesRow kernel)
 *
 * so brick() is a pure table lookup on the hot path. A reshaped
 * machine (neuronLanes != kBrickSize) has no planes and runs the
 * cycle-by-cycle schedule on a zero-copy view of the input tensor
 * instead; those are the only two paths.
 *
 * BrickCostContext is the per-layer setup both engines share: it
 * builds the cost model (resolving plane eligibility and the memoized
 * cycle plane once per layer) and materializes the pallet-independent
 * synapse-set coordinates.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "dnn/tensor.h"
#include "models/pragmatic/schedule.h"
#include "sim/tiling.h"
#include "sim/workload_cache.h"
#include "util/check.h"

namespace pra {
namespace models {

/** Resolves brick costs for one layer stream (see file comment). */
class BrickCostModel
{
  public:
    /** Schedule cycles and term count of one brick; {0, 0} = padding. */
    struct Cost
    {
        int cycles = 0;
        int32_t terms = 0;
    };

    /**
     * @param tiling  the layer's tiling (outlives the model).
     * @param input   the stream tensor (outlives the model).
     * @param planes  packed brick planes of @p input, or nullptr to
     *                resolve every brick from the tensor; only valid
     *                when the machine's neuronLanes == kBrickSize.
     * @param cycles  the memoized schedule-cycle plane for
     *                @p first_stage_bits (same indexing as
     *                @p planes); required alongside @p planes for L
     *                in 1..3, ignored otherwise.
     * @param first_stage_bits  L, the PIP first-stage shifter width.
     */
    BrickCostModel(const sim::LayerTiling &tiling,
                   const dnn::NeuronTensor &input,
                   const sim::BrickPlanes *planes,
                   const uint8_t *cycles, int first_stage_bits)
        : tiling_(tiling), input_(input), planes_(planes),
          cycles_(cycles), bits_(first_stage_bits)
    {
        PRA_CHECK(!planes || cycles || first_stage_bits < 1 ||
                      first_stage_bits >= kMaxFirstStageBits,
                  "BrickCostModel: brick planes at an intermediate "
                  "first-stage width need their cycle plane");
    }

    Cost
    brick(const sim::WindowCoord &w, const sim::SynapseSetCoord &s) const
    {
        if (planes_) {
            const dnn::LayerSpec &layer = tiling_.layer();
            int x = w.x * layer.stride - layer.pad + s.fx;
            int y = w.y * layer.stride - layer.pad + s.fy;
            if (x < 0 || x >= layer.inputX || y < 0 || y >= layer.inputY)
                return {};
            size_t idx =
                planes_->index(x, y, s.brickI / dnn::kBrickSize);
            Cost cost;
            cost.terms = planes_->pop[idx];
            if (bits_ == 0)
                cost.cycles = planes_->orPop[idx];
            else if (bits_ >= kMaxFirstStageBits)
                cost.cycles = planes_->maxPop[idx];
            else
                cost.cycles = cycles_[idx];
            return cost;
        }
        auto view = tiling_.gatherBrickView(input_, w, s);
        Cost cost;
        cost.terms = sim::summarizeBrick(view).pop;
        cost.cycles = brickScheduleCycles(view, bits_);
        return cost;
    }

  private:
    const sim::LayerTiling &tiling_;
    const dnn::NeuronTensor &input_;
    const sim::BrickPlanes *planes_;
    const uint8_t *cycles_;
    int bits_;
};

/**
 * The per-layer setup shared by the pallet- and column-sync engines:
 * resolves plane eligibility and the memoized cycle plane once,
 * builds the BrickCostModel, and materializes the pallet-independent
 * synapse-set coordinates (setCoord is pure index arithmetic, but
 * both engines visit every set once per pallet — resolve them once
 * per layer instead).
 *
 * The context must not outlive the tiling or workload it was built
 * from.
 */
class BrickCostContext
{
  public:
    BrickCostContext(const sim::LayerTiling &tiling,
                     const sim::LayerWorkload &workload,
                     int first_stage_bits)
        : tiling_(tiling), workload_(workload),
          costs_(tiling, workload.tensor(),
                 resolvePlanes(tiling, workload),
                 resolveCycles(tiling, workload, first_stage_bits),
                 first_stage_bits)
    {
        const int64_t num_sets = tiling.numSynapseSets();
        setCoords_.reserve(static_cast<size_t>(num_sets));
        for (int64_t s = 0; s < num_sets; s++)
            setCoords_.push_back(tiling.setCoord(s));
    }

    const BrickCostModel &costs() const { return costs_; }

    /** Coordinate of set s, for all s in [0, numSynapseSets). */
    const std::vector<sim::SynapseSetCoord> &setCoords() const
    {
        return setCoords_;
    }

    /**
     * The shared activation planes this context resolved, or nullptr
     * on a reshaped machine — exposed so
     * two-operand engines reduce over exactly the plane object the
     * cost model reads (e.g. Dynamic-Stripes' per-group orMask).
     */
    const sim::BrickPlanes *planes() const
    {
        return resolvePlanes(tiling_, workload_);
    }

    /**
     * The weight-side planes of this layer: the workload's lazily
     * built shared planes when they apply (kBrickSize lanes), else a
     * context-local synthetic build matching the machine's lane
     * count (a reshaped machine prices the synthetic weight streams
     * even under --activations=propagated — the shared requantized
     * planes assume brick-width lanes). Resolved on first call and
     * never touched by
     * activation-only engines, so they pay nothing. Not
     * synchronized: resolve it once before fanning work out across
     * inner threads.
     */
    const sim::WeightBrickPlanes &
    weightPlanes() const
    {
        if (!weightPlanes_) {
            if (tiling_.config().neuronLanes == dnn::kBrickSize) {
                weightPlanes_ = &workload_.weightPlanes(tiling_.layer());
            } else {
                localWeights_ = sim::syntheticWeightPlanes(
                    tiling_.layer(), tiling_.config().neuronLanes);
                weightPlanes_ = &localWeights_;
            }
        }
        return *weightPlanes_;
    }

  private:
    static const sim::BrickPlanes *
    resolvePlanes(const sim::LayerTiling &tiling,
                  const sim::LayerWorkload &workload)
    {
        // The packed planes summarize kBrickSize-channel bricks; a
        // reshaped machine gathers narrower bricks straight from the
        // tensor instead.
        if (tiling.config().neuronLanes != dnn::kBrickSize)
            return nullptr;
        return &workload.brickPlanes();
    }

    static const uint8_t *
    resolveCycles(const sim::LayerTiling &tiling,
                  const sim::LayerWorkload &workload,
                  int first_stage_bits)
    {
        if (!resolvePlanes(tiling, workload) || first_stage_bits < 1 ||
            first_stage_bits >= kMaxFirstStageBits)
            return nullptr;
        return workload.cyclePlane(first_stage_bits).data();
    }

    const sim::LayerTiling &tiling_;
    const sim::LayerWorkload &workload_;
    BrickCostModel costs_;
    std::vector<sim::SynapseSetCoord> setCoords_;
    mutable const sim::WeightBrickPlanes *weightPlanes_ = nullptr;
    mutable sim::WeightBrickPlanes localWeights_;
};

} // namespace models
} // namespace pra

