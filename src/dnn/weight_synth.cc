#include "dnn/weight_synth.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "dnn/activation_synth.h"
#include "dnn/propagate.h"
#include "util/check.h"

namespace pra {
namespace dnn {

namespace {

/** synthesizeFilters()'s default weight range; the propagated codes
 * must replay exactly the weights the forward pass convolved (the
 * weight-synth test pins this against a direct materialization). */
constexpr int kReferenceWeightRange = 255;

/**
 * The calibrated synthetic weight-code distribution for one profiled
 * weight precision, built once per process (thread-safe, lazy — so a
 * precision nobody prices never pays calibration or warns).
 */
const DiscreteExponential &
weightDistribution(int wp)
{
    PRA_CHECK(wp >= 1 && wp <= 16,
              "weightDistribution: precision out of range");
    static std::array<std::once_flag, 17> once;
    static std::array<std::optional<DiscreteExponential>, 17> cache;
    std::call_once(once[wp], [wp] {
        const uint32_t max_code = (1u << wp) - 1;
        cache[wp].emplace(
            calibrateLambda(max_code, kWeightPopcountTarget),
            max_code);
    });
    return *cache[wp];
}

/** The RNG seed synthesizeFilters() derives for @p layer. */
uint64_t
referenceFilterSeed(const LayerSpec &layer, uint64_t synth_seed)
{
    return (synth_seed ^ kPropagationFilterSalt) ^
           util::fnv1a(layer.name);
}

} // namespace

void
synthesizeWeightCodes(const LayerSpec &layer, int filter,
                      std::span<uint16_t> out)
{
    PRA_CHECK(layer.priced(),
              "synthesizeWeightCodes: pool layers carry no weights");
    PRA_CHECK(filter >= 0 && filter < layer.numFilters,
              "synthesizeWeightCodes: filter out of range");
    PRA_CHECK(static_cast<int64_t>(out.size()) ==
                  layer.synapsesPerFilter(),
              "synthesizeWeightCodes: wrong code-buffer length");
    const DiscreteExponential &dist =
        weightDistribution(layer.profiledWeightPrecision);
    // Counter-seeded per (layer, precision, filter): any filter's
    // codes are reproducible without generating its predecessors.
    uint64_t h = util::fnv1a(layer.name, kWeightStreamSeed);
    h = util::fnv1aMix(
        h, static_cast<uint64_t>(layer.profiledWeightPrecision));
    h = util::fnv1aMix(h, static_cast<uint64_t>(filter));
    util::Xoshiro256 rng(h);
    for (uint16_t &code : out) {
        if (rng.nextBool(kWeightZeroFraction)) {
            code = 0;
            continue;
        }
        code = static_cast<uint16_t>(dist.sample(rng));
    }
}

PropagatedWeightCodes::PropagatedWeightCodes(const LayerSpec &layer,
                                             uint64_t synth_seed)
    : layer_(layer), rng_(referenceFilterSeed(layer, synth_seed))
{
    PRA_CHECK(layer_.priced(),
              "PropagatedWeightCodes: pool layers carry no weights");
    // Pass 1: replay the weight stream to find the layer max
    // magnitude — the anchor that maps |w| onto the profiled weight
    // window. No |w| exceeds kReferenceWeightRange, so the scan stops
    // as soon as it sees one that reaches it (the scan RNG is local:
    // stopping early changes nothing else). Pass 2 (filterCodes)
    // replays the stream filter by filter, so peak memory stays one
    // filter.
    util::Xoshiro256 scan(referenceFilterSeed(layer_, synth_seed));
    const int64_t total =
        layer_.synapsesPerFilter() * layer_.numFilters;
    int max_mag = 0;
    for (int64_t i = 0; i < total && max_mag < kReferenceWeightRange;
         i++) {
        int v = static_cast<int>(scan.nextInRange(
            -kReferenceWeightRange, kReferenceWeightRange));
        max_mag = std::max(max_mag, std::abs(v));
    }
    maxMag_ = max_mag;
}

void
PropagatedWeightCodes::filterCodes(int filter, std::span<uint16_t> out)
{
    PRA_CHECK(filter == nextFilter_,
              "PropagatedWeightCodes: filters must stream in order");
    PRA_CHECK(static_cast<int64_t>(out.size()) ==
                  layer_.synapsesPerFilter(),
              "PropagatedWeightCodes: wrong code-buffer length");
    nextFilter_++;
    const uint32_t max_code =
        (1u << layer_.profiledWeightPrecision) - 1;
    const double scale =
        maxMag_ > 0 ? static_cast<double>(max_code) / maxMag_ : 0.0;
    for (uint16_t &code : out) {
        int v = static_cast<int>(rng_.nextInRange(
            -kReferenceWeightRange, kReferenceWeightRange));
        code = static_cast<uint16_t>(
            std::llround(std::abs(v) * scale));
    }
}

} // namespace dnn
} // namespace pra
