/**
 * @file
 * Stripes (STR) baseline (paper Section I and [4]), engine kind
 * "stripes".
 *
 * Stripes processes neurons bit-serially over the layer's profiled
 * precision p while processing 16 windows in parallel, so a synapse
 * set costs p cycles for a whole pallet instead of DaDN's 16 cycles
 * (one per window): ideal speedup 16/p. Stripes is value-independent
 * beyond the per-layer precision.
 *
 * Knobs:
 *   precision=N  fixed serial precision for every layer (1..16);
 *                0 (default) uses each layer's profiled precision.
 *   repr=fixed16|quant8
 *                fixed16 (default): value-independent, per-layer
 *                profiled (or overridden) precisions. quant8: the
 *                paper's Figure 12 configuration — Stripes runs the
 *                8-bit code stream at the per-layer precision its
 *                largest code actually needs, so the engine consumes
 *                the Quant8 input stream (synthetic or propagated)
 *                and derives the precision from it. Incompatible
 *                with a precision override.
 *
 * The functional half models the serial-parallel multiplier: one
 * neuron bit ANDed with the full synapse per cycle, accumulated with a
 * growing shift — exactly the paper's Figure 4b datapath.
 */

#pragma once

#include <cstdint>

#include "dnn/layer_spec.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** The Stripes baseline: the closed form of stripesLayerResult(). */
class StripesEngine : public sim::Engine
{
  public:
    explicit StripesEngine(const sim::EngineKnobs &knobs);

    std::string kind() const override { return "stripes"; }
    std::string name() const override;
    sim::InputStream inputStream() const override;

    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

  private:
    int precisionOverride_ = 0; ///< 0 = per-layer profiled precision.
    bool quant8_ = false;       ///< Price the 8-bit code stream.
};

/**
 * Stripes' price of one layer at serial precision @p precision
 * (1..16): passes x pallets x synapse sets steps of @p precision
 * cycles each, one SB read per step, @p precision terms per product.
 * Shared by the stripes engine and Dynamic-Stripes' static layer-wide
 * configuration; engineName is left for the caller's name().
 */
sim::LayerResult stripesLayerResult(const dnn::LayerSpec &layer,
                                    const sim::AccelConfig &accel,
                                    int precision);

/**
 * Functional serial-parallel multiply: process the @p precision bits
 * of @p neuron's precision window (starting at @p window_lsb), one
 * bit per cycle, against the full synapse. Equals synapse * neuron
 * when the neuron fits its window.
 */
int64_t serialMultiply(int16_t synapse, uint16_t neuron, int precision,
                       int window_lsb = 0);

} // namespace models
} // namespace pra
