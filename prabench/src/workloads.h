/**
 * @file
 * The benchmark's workloads: how each is set up from a seed, run
 * untimed through the simulator's CLI entry points (sim::runSweep,
 * sim::runServingSweep), and run again with a span around every call
 * into a simulator layer.
 *
 * The traced run drives the same layers through their public
 * functions — WorkloadCache/WorkloadSource, the LayerWorkload plane
 * builders, Engine::simulateLayer, applyMemoryModel,
 * buildBatchCostCurve, simulateServing — in the order the entry
 * points use them. Each stream is built, with the planes its
 * consumers read, by the first cell that asks for it; every other
 * cell then prices on warm planes, so pricing spans hold pricing
 * alone. Its outputs must equal the untimed run's byte for byte,
 * which the benchmark checks.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "sim/engine_registry.h"
#include "sim/serving/serving_sim.h"
#include "sim/sweep.h"
#include "trace.h"

namespace prabench {

/** Engine kinds any workload prices (one price.<kind> span each). */
const std::vector<std::string> &pricedKinds();

/** One serving sweep of a serving workload. */
struct ServingRun
{
    std::string fleetSpan; ///< "fleet.ideal" or "fleet.degraded".
    pra::sim::ServingSweepOptions options;
};

/** Everything one run of a workload needs, built by makeSetup(). */
struct Setup
{
    std::vector<pra::dnn::Network> networks;
    std::vector<pra::sim::EngineSelection> engines;
    pra::sim::EngineRegistry registry;
    int threads = 1;
    /** Sweep workloads: the grid's options. */
    pra::sim::SweepOptions sweep;
    /** Serving workloads: the serving sweeps, in run order. */
    std::vector<ServingRun> serving;
};

/**
 * Build @p workload's inputs from @p seed: model zoo networks, a
 * fresh engine registry, validated engine selections and the run
 * options. @p smoke swaps every network for the tiny one and
 * shortens the serving traces. fatal() on an unknown name.
 */
Setup makeSetup(const std::string &workload, uint64_t seed, int threads,
                bool smoke);

/** One run through sim::runSweep / sim::runServingSweep. */
RunOutputs runUntimed(const Setup &setup);

/** What the traced run measured besides the spans. */
struct TraceStats
{
    double parallelWallS = 0.0; ///< Wall time of the pool phases.
    int threads = 1;            ///< Workers in those phases.
};

/** One traced run; its outputs must equal runUntimed()'s. */
RunOutputs runTraced(const Setup &setup, Counters &counters,
                     TraceStats &stats);

} // namespace prabench
