/**
 * @file
 * Deterministic pallet sampling.
 *
 * Layer cycle counts are sums over pallet steps that are identically
 * distributed across the output plane, so uniformly sampling pallets
 * and scaling gives an unbiased estimate at a fraction of the runtime.
 * Sampling is deterministic (evenly spaced with a fixed phase) so
 * results are reproducible; maxUnits == 0 disables sampling.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace pra {
namespace util {
class ArgParser;
} // namespace util

namespace sim {

/** Sampling policy for per-layer simulation. */
struct SampleSpec
{
    /** Maximum units (pallets) simulated per layer; 0 = simulate all. */
    int64_t maxUnits = 0;

    bool enabled() const { return maxUnits > 0; }
};

/** The result of sampling @p total units. */
struct SamplePlan
{
    std::vector<int64_t> indices; ///< Unit indices to simulate.
    double scale = 1.0;           ///< total / indices.size().
};

/**
 * Evenly spaced sample of up to @p spec.maxUnits indices from
 * [0, total); always includes index 0 and, via even spacing, units
 * across the whole range. total == 0 yields an empty plan.
 */
SamplePlan planSample(int64_t total, const SampleSpec &spec);

/**
 * The sampling policy of the --units=N / --full flags every tool,
 * bench and example shares: --full simulates every unit, otherwise
 * each layer is capped at --units (default @p default_units). A
 * non-positive --units is fatal even alongside --full: a cap of zero
 * must not silently mean "simulate everything", which is --full's
 * job.
 */
SampleSpec parseSampleSpec(const util::ArgParser &args,
                           int64_t default_units);

} // namespace sim
} // namespace pra

