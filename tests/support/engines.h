/**
 * @file
 * Pricing one layer on a value-independent registry engine (DaDN,
 * Stripes), for tests that compare a layer against those baselines'
 * closed forms: exhaustive, serial.
 */

#pragma once

#include "models/engines.h"
#include "sim/engine.h"

namespace pra {
namespace models {

/**
 * @p layer priced on @p accel by the value-independent registry
 * engine @p sel (it reads no stream, so the workload is empty).
 */
inline sim::LayerResult
priceLayer(const sim::EngineSelection &sel, const dnn::LayerSpec &layer,
           const sim::AccelConfig &accel)
{
    return builtinEngines().create(sel)->simulateLayer(
        layer, sim::LayerWorkload(dnn::NeuronTensor()), accel,
        sim::SampleSpec{0}, util::InnerExecutor());
}

/** DaDN's cycles for @p layer on @p accel. */
inline double
dadnCycles(const dnn::LayerSpec &layer, const sim::AccelConfig &accel = {})
{
    return priceLayer({"dadn", {}}, layer, accel).cycles;
}

/** Stripes' cycles for @p layer at serial precision @p precision. */
inline double
stripesCycles(const dnn::LayerSpec &layer, int precision,
              const sim::AccelConfig &accel = {})
{
    return priceLayer({"stripes", {{"precision", std::to_string(precision)}}},
                      layer, accel)
        .cycles;
}

} // namespace models
} // namespace pra
