/**
 * @file
 * Serial, uncached oracles for the grid drivers. Each cell is priced
 * on the calling thread, in grid order, by a fresh engine on its own
 * uncached WorkloadSource(synth, mode): no pool, no shared cache, no
 * layer splits unless @p exec asks for them. runSweep and
 * runServingSweep must agree with these bit for bit at any thread
 * count.
 */

#pragma once

#include <utility>
#include <vector>

#include "dnn/activation_synth.h"
#include "sim/memory/memory_model.h"
#include "sim/serving/serving_sim.h"
#include "sim/sweep.h"

namespace pra {
namespace sim {

/** runSweep's whole grid (shard options ignored), cell by cell. */
inline std::vector<NetworkResult>
uncachedSweep(const std::vector<dnn::Network> &networks,
              const std::vector<EngineSelection> &engines,
              const EngineRegistry &registry, const SweepOptions &options,
              const util::InnerExecutor &exec = util::InnerExecutor())
{
    std::vector<NetworkResult> results;
    for (const auto &network : networks) {
        for (const auto &sel : engines) {
            dnn::ActivationSynthesizer synth(network, options.seed);
            WorkloadSource source(synth, options.activations);
            NetworkResult result = registry.create(sel)->runBatch(
                network, source, options.accel, options.sample, exec,
                options.batch);
            applyMemoryModel(network, options.accel, result);
            results.push_back(std::move(result));
        }
    }
    return results;
}

/** runServingSweep, cost curve by cost curve, then rate by rate. */
inline std::vector<ServingReport>
uncachedServingSweep(const std::vector<dnn::Network> &networks,
                     const std::vector<EngineSelection> &engines,
                     const EngineRegistry &registry,
                     const ServingSweepOptions &options)
{
    std::vector<ServingReport> reports;
    for (const auto &network : networks) {
        for (const auto &sel : engines) {
            dnn::ActivationSynthesizer synth(network, options.seed);
            WorkloadSource source(synth, options.activations);
            BatchCostCurve curve = buildBatchCostCurve(
                network, *registry.create(sel), source, options.accel,
                options.sample, util::InnerExecutor(),
                options.serving.policy.maxBatch);
            for (double rate : options.offeredPerSecond) {
                ServingConfig config = options.serving;
                config.arrival.meanGapCycles = kCyclesPerSecond / rate;
                reports.push_back(simulateServing(curve, config));
            }
        }
    }
    return reports;
}

} // namespace sim
} // namespace pra
