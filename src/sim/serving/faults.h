/**
 * @file
 * Deterministic fail-stop fault injection and retry policy for the
 * serving simulator.
 *
 * Real accelerator fleets must be sized for the degraded case: the
 * capacity question that matters is what p99 and goodput survive when
 * an instance dies mid-batch at peak load. This module supplies the
 * failure process; sim/serving/serving_sim.cc consumes it in the
 * degraded fleet event loop.
 *
 * Every draw follows the arrivalGap regime (sim/serving/arrival.h):
 * a *counter-based* pure function of (spec, instance, event index) —
 * each draw seeds its own Xoshiro256 from a well-mixed per-index
 * hash, with no wall clock and no shared RNG state. The schedule of
 * instance i is therefore independent of evaluation order, thread
 * count, and every other instance, so faulted serving reports stay
 * byte-identical across --threads, and a schedule prefix
 * never changes when the simulated horizon grows.
 *
 * An instance alternates up-windows and repair-windows:
 *
 *     up_0 = upDuration(spec, i, 0)        (mean mtbfCycles)
 *     down_0 = repairDuration(spec, i, 0)  (mean mttrCycles)
 *     fail_k   = repair_{k-1} + up_k       (repair_{-1} = 0)
 *     repair_k = fail_k + down_k
 *
 * i.e. fail-stop at fail_k, back in service at repair_k. All
 * accumulation saturates at kNoFault (= UINT64_MAX, "never"), so a
 * huge --mtbf degenerates cleanly to a perfect instance.
 *
 * FaultKind::Fixed replaces the exponential draws with the means
 * themselves (the deterministic analogue of ArrivalKind::Uniform),
 * which makes fault scenarios hand-checkable in unit tests.
 */

#pragma once

#include <cstdint>
#include <string>

namespace pra {
namespace sim {

/** Sentinel cycle for "this instance never fails (again)". */
inline constexpr uint64_t kNoFault = UINT64_C(0xffffffffffffffff);

/** Shape of the up/repair duration distributions. */
enum class FaultKind { Exponential, Fixed };

/** Kind name as accepted by --fault-dist. */
const char *faultKindName(FaultKind kind);

/** Parse a --fault-dist= value; fatal() on anything else. */
FaultKind parseFaultKind(const std::string &text);

/** One fail-stop/repair process: intensity, distribution, seed. */
struct FaultSpec
{
    /** Mean up-time in cycles; 0 disables fault injection. */
    uint64_t mtbfCycles = 0;
    /** Mean repair time in cycles (>= 1 when faults are enabled). */
    uint64_t mttrCycles = 0;
    FaultKind kind = FaultKind::Exponential;
    uint64_t seed = 0x5eed;
};

/** True when @p spec injects faults at all (mtbfCycles > 0). */
inline bool
faultsEnabled(const FaultSpec &spec)
{
    return spec.mtbfCycles > 0;
}

/**
 * Length of up-window @p index of instance @p instance, in cycles
 * (>= 1) — a pure function of (spec, instance, index).
 */
uint64_t upDuration(const FaultSpec &spec, int instance, int index);

/**
 * Length of repair-window @p index of instance @p instance, in
 * cycles (>= 1) — a pure function of (spec, instance, index).
 */
uint64_t repairDuration(const FaultSpec &spec, int instance,
                        int index);

/**
 * Lazy walker over one instance's absolute fail/repair cycles.
 * Window k is up over [repair_{k-1}, fail_k) and under repair over
 * [fail_k, repair_k); advance() moves to window k+1. A disabled spec
 * (or a saturated accumulation) reports failCycle() == kNoFault and
 * never advances past it.
 */
class FaultTimeline
{
  public:
    FaultTimeline(const FaultSpec &spec, int instance);

    /** Absolute cycle of the current window's fail-stop. */
    uint64_t failCycle() const { return fail_; }
    /** Absolute cycle the current window's repair completes. */
    uint64_t repairCycle() const { return repair_; }

    /** Move to the next up-window (no-op once saturated). */
    void advance();

  private:
    FaultSpec spec_;
    int instance_;
    int index_ = 0;
    uint64_t fail_ = kNoFault;
    uint64_t repair_ = kNoFault;
};

/**
 * Cycles instance @p instance is in service within [0, horizon) —
 * the numerator of the fleet availability the serving report carries.
 */
uint64_t upCyclesBefore(const FaultSpec &spec, int instance,
                        uint64_t horizon);

/**
 * Retry policy for requests whose batch was killed by a fail-stop:
 * up to maxRetries re-dispatches after the first attempt, each
 * delayed by truncated binary exponential backoff with deterministic
 * jitter (see retryBackoffCycles). A request that fails
 * maxRetries + 1 times is a permanent failure.
 */
struct RetryPolicy
{
    int maxRetries = 3; ///< Re-dispatches allowed after attempt one.
    /** Backoff scale: retry r waits ~backoffBase * 2^(r-1) cycles. */
    uint64_t backoffBaseCycles = 1000;
};

/**
 * Requeue delay (cycles) before retry number @p retry (1-based) of
 * request @p request: backoffBase * 2^(retry-1), stretched by a
 * deterministic jitter factor in [1, 2) drawn as a pure function of
 * (policy, seed, request, retry), saturating instead of wrapping.
 * Jitter decorrelates the retry herd a mass batch-kill creates while
 * keeping the trace a pure counter function, exactly like arrivals.
 */
uint64_t retryBackoffCycles(const RetryPolicy &policy, uint64_t seed,
                            int request, int retry);

} // namespace sim
} // namespace pra
