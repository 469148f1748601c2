/**
 * @file
 * Deterministic request-arrival processes for the serving simulator.
 *
 * Arrivals are *counter-based*: the gap after request i is a pure
 * function of (seed, i) — each draw seeds its own Xoshiro256 from a
 * well-mixed per-index hash instead of advancing one shared stream.
 * That costs a few cycles per draw but buys exactly the property the
 * repo's determinism regime needs: the arrival trace is independent
 * of evaluation order, thread count, and how many requests any other
 * component consumed, so serving reports are byte-identical across
 * --threads and a trace prefix never changes when the
 * request count grows.
 *
 * Two processes cover the capacity-planning questions the serving
 * model answers: Uniform (a fixed inter-arrival gap — the paced
 * load-generator case) and Poisson (exponential gaps — the classic
 * open-system model of independent users).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pra {
namespace sim {

/** Shape of the inter-arrival gap distribution. */
enum class ArrivalKind { Uniform, Poisson };

/** Kind name as accepted by --arrival ("uniform"/"poisson"). */
const char *arrivalKindName(ArrivalKind kind);

/** Parse an --arrival= value; fatal() on anything else. */
ArrivalKind parseArrivalKind(const std::string &text);

/** One arrival process: kind, intensity, and seed. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /**
     * Mean inter-arrival gap in simulated cycles (>= 1). At the
     * nominal 1 GHz clock, a gap of G cycles is an offered load of
     * 1e9 / G images per second.
     */
    double meanGapCycles = 1000.0;
    uint64_t seed = 0x5eed;
};

/**
 * The gap (in cycles, >= 1) between request @p index and request
 * @p index + 1 — a pure function of (spec, index); see file comment.
 */
uint64_t arrivalGap(const ArrivalSpec &spec, int index);

/**
 * Absolute arrival cycles of @p count requests: request 0 arrives at
 * the first gap (the trace starts one gap after cycle 0, so a
 * uniform process is evenly spaced from the very first request), and
 * request i+1 follows i by arrivalGap(spec, i + 1). Non-decreasing
 * by construction; a prefix of a longer trace is identical to a
 * shorter trace.
 */
std::vector<uint64_t> generateArrivals(const ArrivalSpec &spec,
                                       int count);

} // namespace sim
} // namespace pra
