/**
 * @file
 * The unified simulation-engine interface.
 *
 * Every cycle/term model in src/models is one subclass of this
 * interface that does its own pricing, so sweeps, benches and tools
 * treat "a thing that simulates a layer" uniformly: DaDN and Stripes
 * (value-independent baselines), Dynamic-Stripes, the Pragmatic
 * pallet- and column-sync engines, Laconic and the analytic
 * term-count model. An engine is identified by its registry *kind*
 * (e.g. "pragmatic") and a variant *name* derived from its knobs
 * (e.g. "PRA-2b-1R"); name() is what every result's engineName
 * carries. runNetwork() (through sim::runSweep for a grid) is the
 * one way to price a network.
 *
 * Engines consume immutable LayerWorkload views (stream tensor plus
 * lazily built per-brick planes) handed out by a WorkloadSource, so a
 * sweep can share one synthesized workload across every grid cell,
 * and may split big layers into deterministic blocks across an
 * InnerExecutor. simulateLayer(LayerWorkload) is the one layer entry
 * point every engine implements; a caller holding a bare tensor
 * wraps it as sim::LayerWorkload(tensor) (planes then build on first
 * use, uncached).
 */

#pragma once

#include <string>

#include "dnn/activation_synth.h"
#include "dnn/layer_spec.h"
#include "dnn/network.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

/** One simulation backend behind a uniform layer/network API. */
class Engine
{
  public:
    virtual ~Engine() = default;

    /** Registry kind this engine was created under, e.g. "stripes". */
    virtual std::string kind() const = 0;

    /**
     * Variant label embedded in results, e.g. "PRA-2b". Distinct
     * knob settings of one kind produce distinct names.
     */
    virtual std::string name() const = 0;

    /** The neuron stream simulateLayer expects in its workload. */
    virtual InputStream inputStream() const { return InputStream::None; }

    /**
     * Simulate one layer. @p workload carries the stream announced by
     * inputStream() (an empty tensor for value-independent engines);
     * engines may read its packed planes and split the layer into
     * deterministic blocks across @p exec. The returned LayerResult
     * has layerName and engineName filled in.
     */
    virtual LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const LayerWorkload &workload, const AccelConfig &accel,
                  const SampleSpec &sample,
                  const util::InnerExecutor &exec) const = 0;

    /**
     * Simulate a whole network on the workloads of @p source. The
     * default loops simulateLayer over the layers in order, pulling
     * each layer's inputStream() view from the source; structural
     * pool layers (never priced by any engine) are skipped, so
     * results contain one entry per *priced* layer. Engines needing
     * extra per-layer context (e.g. the analytic model's
     * first-layer CVN rule) override this and apply the same skip.
     */
    virtual NetworkResult
    runNetwork(const dnn::Network &network, const WorkloadSource &source,
               const AccelConfig &accel, const SampleSpec &sample,
               const util::InnerExecutor &exec) const;

    /**
     * Convenience overload: simulate a whole network straight off a
     * synthesizer (uncached workloads, serial execution).
     */
    NetworkResult
    runNetwork(const dnn::Network &network,
               const dnn::ActivationSynthesizer &activations,
               const AccelConfig &accel, const SampleSpec &sample) const;

    /**
     * Simulate a batch of @p batch images (must be >= 1): one
     * runNetwork per image on source.withImage(b), accumulated into a
     * per-batch aggregate (accumulateBatchImage) with batchImages
     * stamped on every layer. Image 0 is the historical stream, so
     * runBatch(..., 1) is byte-identical to runNetwork() apart from
     * the (defaulted) batchImages field. Deliberately non-virtual:
     * engines that override runNetwork (the analytic terms model)
     * batch through the same accumulation rule.
     */
    NetworkResult
    runBatch(const dnn::Network &network, const WorkloadSource &source,
             const AccelConfig &accel, const SampleSpec &sample,
             const util::InnerExecutor &exec, int batch) const;
};

} // namespace sim
} // namespace pra

