#include "sim/serving/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iterator>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "sim/memory/memory_model.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/saturating.h"
#include "util/stats.h"

namespace pra {
namespace sim {

namespace {

std::string
roundTrip(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Sanity checks of a serving run. */
void
checkServingConfig(const BatchCostCurve &curve,
                   const ServingConfig &config)
{
    PRA_CHECK(config.instances >= 1,
              "simulateServing: need at least one instance");
    PRA_CHECK(config.requests >= 1,
              "simulateServing: need at least one request");
    PRA_CHECK(config.policy.maxBatch >= 1 &&
                  static_cast<size_t>(config.policy.maxBatch) <=
                      curve.batchSystemCycles.size(),
              "simulateServing: cost curve does not cover maxBatch");
    PRA_CHECK(config.queueCap >= 0,
              "simulateServing: queue cap must be non-negative");
    PRA_CHECK(config.degradeWatermark >= 0,
              "simulateServing: degrade watermark must be "
              "non-negative");
    PRA_CHECK(config.retry.maxRetries >= 0,
              "simulateServing: retry limit must be non-negative");
    if (faultsEnabled(config.faults))
        PRA_CHECK(config.faults.mttrCycles >= 1,
                  "simulateServing: mean repair time must be at "
                  "least one cycle when faults are enabled");
}

/**
 * Copy the configuration into the report; `degraded` records whether
 * any of the fault layer, queue cap or watermark is configured.
 */
void
stampServingConfig(ServingReport &report, const ServingConfig &config)
{
    report.arrivalKind = config.arrival.kind;
    report.offeredPerSecond =
        kCyclesPerSecond / config.arrival.meanGapCycles;
    report.instances = config.instances;
    report.maxBatch = config.policy.maxBatch;
    report.timeoutCycles = config.policy.timeoutCycles;
    report.requests = config.requests;
    report.degraded = faultsEnabled(config.faults) ||
                      config.queueCap > 0 ||
                      config.degradeWatermark > 0;
    report.mtbfCycles = config.faults.mtbfCycles;
    report.mttrCycles = config.faults.mttrCycles;
    report.faultKind = config.faults.kind;
    report.queueCap = config.queueCap;
    report.degradeWatermark = config.degradeWatermark;
    report.retryLimit = config.retry.maxRetries;
    report.backoffBaseCycles = config.retry.backoffBaseCycles;
}

} // namespace

BatchCostCurve
buildBatchCostCurve(const dnn::Network &network, const Engine &engine,
                    const WorkloadSource &source,
                    const AccelConfig &accel, const SampleSpec &sample,
                    const util::InnerExecutor &exec, int max_batch)
{
    PRA_CHECK(max_batch >= 1,
              "buildBatchCostCurve: max_batch must be >= 1");
    BatchCostCurve curve;
    curve.networkName = network.name;
    curve.engineName = engine.name();
    curve.batchSystemCycles.reserve(static_cast<size_t>(max_batch));

    // One engine pass per image, accumulated exactly the way
    // Engine::runBatch accumulates — so pricing prefix b (stamp the
    // batch size, apply the memory model to a copy) reproduces a
    // standalone runBatch(b) bit for bit, at max_batch passes total
    // instead of one per (prefix, image) pair.
    NetworkResult acc = engine.runNetwork(network, source.withImage(0),
                                          accel, sample, exec);
    for (int b = 1; b <= max_batch; b++) {
        if (b > 1)
            accumulateBatchImage(
                acc, engine.runNetwork(network, source.withImage(b - 1),
                                       accel, sample, exec));
        NetworkResult priced = acc;
        for (auto &layer : priced.layers)
            layer.batchImages = b;
        applyMemoryModel(network, accel, priced);
        curve.batchSystemCycles.push_back(priced.totalSystemCycles());
    }
    return curve;
}

namespace {

/**
 * Discrete events of the fleet loop. The enumerator order is the
 * tie-break at equal cycles and is load-bearing: completions are
 * observed before the fail-stop of the same cycle (a batch whose
 * interval is [start, done) finished), repairs before new work is
 * admitted, and arrivals/retries enter the queue before the
 * dispatcher re-evaluates. Arrivals never enter the heap: they
 * stream from the sorted trace and merge into this order.
 */
enum class EventKind : int {
    BatchDone = 0,
    InstanceFail = 1,
    InstanceRepair = 2,
    Arrival = 3,
    RetryReady = 4,
};

struct FleetEvent
{
    uint64_t cycle = 0;
    EventKind kind = EventKind::BatchDone;
    int idx = 0;      ///< Instance (fleet events) or request id.
    int64_t epoch = 0; ///< Launch generation (BatchDone staleness).
};

/** Min-heap order over the deterministic (cycle, kind, idx) total
 *  order; epoch disambiguates nothing but keeps the order total. */
struct FleetEventAfter
{
    bool
    operator()(const FleetEvent &a, const FleetEvent &b) const
    {
        return std::tie(a.cycle, a.kind, a.idx, a.epoch) >
               std::tie(b.cycle, b.kind, b.idx, b.epoch);
    }
};

/**
 * The fleet loop: identical instances serve the arrival trace under
 * the batching policy, with optional fail-stop faults (in-flight
 * batches killed, requests retried with exponential backoff,
 * permanent-failure accounting), a bounded dispatch queue with
 * load-shedding, and the admission-control watermark. Dispatch
 * decisions fire at exactly the cycles a pull loop over the trace
 * computes: every decline leaves a wake-up at its own dispatchCycle
 * estimate.
 */
ServingReport
runFleet(const BatchCostCurve &curve, const ServingConfig &config)
{
    const std::vector<uint64_t> arrivals =
        generateArrivals(config.arrival, config.requests);
    const int n = static_cast<int>(arrivals.size());

    // Per-request state: dispatch attempts consumed so far.
    std::vector<int> tries(static_cast<size_t>(n), 0);
    // Waiting requests, sorted by (queue-entry cycle, id): trace
    // order for arrivals, requeue order for retries.
    std::deque<std::pair<uint64_t, int>> pending;
    int next_arrival = 0; ///< Trace cursor: the next request to arrive.
    // The dispatcher's wake-up: the launch cycle of the last decline.
    std::optional<uint64_t> wake;

    const size_t instances = static_cast<size_t>(config.instances);
    std::vector<uint64_t> free_at(instances, 0);
    std::vector<char> up(instances, 1);
    std::vector<int64_t> epoch(instances, 0);
    std::vector<uint64_t> launch_at(instances, 0);
    std::vector<std::vector<int>> flight(instances);
    std::vector<FaultTimeline> timelines;
    timelines.reserve(instances);
    std::priority_queue<FleetEvent, std::vector<FleetEvent>,
                        FleetEventAfter>
        events;
    for (size_t i = 0; i < instances; i++) {
        timelines.emplace_back(config.faults, static_cast<int>(i));
        if (timelines[i].failCycle() != kNoFault)
            events.push({timelines[i].failCycle(),
                         EventKind::InstanceFail,
                         static_cast<int>(i), 0});
    }

    // The report's counters accumulate in place.
    ServingReport report;
    report.networkName = curve.networkName;
    report.engineName = curve.engineName;
    stampServingConfig(report, config);
    uint64_t &makespan = report.makespanCycles;
    util::Histogram latencies = util::Histogram::logSpaced(
        kLatencyHistogramMax, kLatencyHistogramSubBits);
    util::Histogram faulted_latencies = util::Histogram::logSpaced(
        kLatencyHistogramMax, kLatencyHistogramSubBits);
    double busy_cycles = 0.0;
    int64_t dispatched_images = 0;
    auto resolved = [&] {
        return report.completed + report.shedRequests +
               report.permanentFailures;
    };

    // A request entering the queue at cycle t: shed at the cap (the
    // bounded queue's loud load-shedding), queued otherwise. Every
    // waiting request entered at or before t, so an arrival appends
    // and a retry lands among the back entries.
    auto admit = [&](uint64_t t, int request) {
        if (config.queueCap > 0 &&
            pending.size() >= static_cast<size_t>(config.queueCap)) {
            report.shedRequests++;
            makespan = std::max(makespan, t);
            return;
        }
        const std::pair<uint64_t, int> key{t, request};
        if (pending.empty() || pending.back() < key)
            pending.push_back(key);
        else
            pending.insert(std::upper_bound(pending.begin(),
                                            pending.end(), key),
                           key);
    };

    // The next event in (cycle, kind, idx) order, merging the heap
    // with the trace cursor; false once both are drained.
    auto peek = [&](FleetEvent &ev) {
        if (next_arrival < n) {
            const uint64_t at = arrivals[static_cast<size_t>(next_arrival)];
            if (events.empty() ||
                std::make_pair(at, EventKind::Arrival) <
                    std::make_pair(events.top().cycle,
                                   events.top().kind)) {
                ev = {at, EventKind::Arrival, next_arrival, 0};
                return true;
            }
        }
        if (events.empty())
            return false;
        ev = events.top();
        return true;
    };

    auto handleEvent = [&](const FleetEvent &ev, uint64_t t) {
        switch (ev.kind) {
          case EventKind::BatchDone: {
            const size_t i = static_cast<size_t>(ev.idx);
            if (ev.epoch != epoch[i])
                return; // The batch this completion meant was killed.
            for (int r : flight[i]) {
                const uint64_t latency =
                    t - arrivals[static_cast<size_t>(r)];
                latencies.add(latency);
                if (tries[static_cast<size_t>(r)] > 1)
                    faulted_latencies.add(latency);
                report.completed++;
            }
            busy_cycles += static_cast<double>(t - launch_at[i]);
            makespan = std::max(makespan, t);
            flight[i].clear();
            return;
          }
          case EventKind::InstanceFail: {
            const size_t i = static_cast<size_t>(ev.idx);
            report.instanceFailures++;
            up[i] = 0;
            if (!flight[i].empty()) {
                // Fail-stop mid-batch: the whole batch is lost.
                report.killedBatches++;
                busy_cycles += static_cast<double>(t - launch_at[i]);
                for (int r : flight[i]) {
                    const int used = tries[static_cast<size_t>(r)];
                    if (used > config.retry.maxRetries) {
                        report.permanentFailures++;
                        makespan = std::max(makespan, t);
                        continue;
                    }
                    report.retries++;
                    const uint64_t ready = util::saturatingAdd(
                        t, retryBackoffCycles(config.retry,
                                              config.faults.seed, r,
                                              used));
                    events.push({ready, EventKind::RetryReady, r, 0});
                }
                flight[i].clear();
                epoch[i]++;
            }
            if (timelines[i].repairCycle() != kNoFault)
                events.push({timelines[i].repairCycle(),
                             EventKind::InstanceRepair, ev.idx, 0});
            return;
          }
          case EventKind::InstanceRepair: {
            const size_t i = static_cast<size_t>(ev.idx);
            up[i] = 1;
            free_at[i] = t;
            timelines[i].advance();
            if (timelines[i].failCycle() != kNoFault)
                events.push({timelines[i].failCycle(),
                             EventKind::InstanceFail, ev.idx, 0});
            return;
          }
          case EventKind::Arrival:
          case EventKind::RetryReady:
            admit(t, ev.idx);
            return;
        }
    };

    // Launch every batch the policy allows at cycle t; when the next
    // launch is strictly in the future, set the wake-up to exactly
    // that estimate. State only changes at events, and every event
    // re-runs this, so a later estimate simply overwrites it.
    auto dispatchAt = [&](uint64_t t) {
        while (!pending.empty()) {
            // Earliest-free instance among in-service idle ones,
            // lowest id on ties.
            int j = -1;
            for (size_t i = 0; i < instances; i++) {
                if (!up[i] || !flight[i].empty())
                    continue;
                if (j < 0 || free_at[i] < free_at[static_cast<size_t>(j)])
                    j = static_cast<int>(i);
            }
            if (j < 0)
                return; // Every instance is busy or down.
            const size_t ji = static_cast<size_t>(j);

            const size_t occupancy = pending.size();
            const bool degrade =
                config.degradeWatermark > 0 &&
                occupancy >=
                    static_cast<size_t>(config.degradeWatermark);
            BatchingPolicy policy = config.policy;
            if (degrade) {
                // Watermark crossed: shed to half the batch cap and
                // greedy launches before the cap has to drop.
                policy.maxBatch = std::max(1, policy.maxBatch / 2);
                policy.timeoutCycles = 0;
            }
            const size_t max_batch =
                static_cast<size_t>(policy.maxBatch);

            const uint64_t head = pending.front().first;
            uint64_t fill;
            if (occupancy >= max_batch) {
                fill = pending[max_batch - 1].first;
            } else {
                // Estimate the fill from the trace tail; retries
                // still in backoff are unknowable to a dispatcher.
                const size_t idx = static_cast<size_t>(next_arrival) +
                                   (max_batch - occupancy) - 1;
                fill = idx < static_cast<size_t>(n)
                           ? arrivals[idx]
                           : kNeverFills;
                // A requeued head can outrank older trace arrivals.
                fill = std::max(fill, head);
            }
            const uint64_t start =
                dispatchCycle(policy, free_at[ji], head, fill);
            if (start > t) {
                wake = start;
                return;
            }
            // start < t only after a watermark flip mid-wait; the
            // launch happens now either way.
            const uint64_t launch = std::max(start, t);

            const size_t take = std::min(max_batch, occupancy);
            for (size_t k = 0; k < take; k++) {
                const int r = pending.front().second;
                flight[ji].push_back(r);
                tries[static_cast<size_t>(r)]++;
                pending.pop_front();
            }
            const double cost = curve.batchSystemCycles[take - 1];
            const uint64_t cost_cycles = std::max<uint64_t>(
                1, static_cast<uint64_t>(std::llround(cost)));
            const uint64_t done =
                util::saturatingAdd(launch, cost_cycles);
            launch_at[ji] = launch;
            free_at[ji] = done;
            if (done != kNoFault)
                events.push({done, EventKind::BatchDone, j,
                             epoch[ji]});
            report.dispatches++;
            dispatched_images += static_cast<int64_t>(take);
            if (degrade)
                report.degradedDispatches++;
        }
    };

    // Each step jumps to the earliest pending event or wake-up,
    // handles every event of that cycle, then lets the dispatcher act.
    FleetEvent ev;
    while (resolved() < n) {
        bool more = peek(ev);
        if (!more && !wake)
            break;
        const uint64_t t = !more  ? *wake
                           : wake ? std::min(ev.cycle, *wake)
                                  : ev.cycle;
        if (wake == t)
            wake.reset();
        for (; more && ev.cycle == t; more = peek(ev)) {
            if (ev.kind == EventKind::Arrival)
                next_arrival++;
            else
                events.pop();
            handleEvent(ev, t);
        }
        if (resolved() >= n)
            break;
        dispatchAt(t);
    }
    // The loop can only drain with unresolved requests when every
    // instance wedged permanently (saturated repair/completion
    // times): account the stranded requests as permanent failures
    // rather than stalling or spinning.
    report.permanentFailures = n - report.completed - report.shedRequests;

    report.meanBatch =
        report.dispatches == 0
            ? 0.0
            : static_cast<double>(dispatched_images) /
                  static_cast<double>(report.dispatches);
    report.p50Cycles = latencies.percentile(0.50);
    report.p95Cycles = latencies.percentile(0.95);
    report.p99Cycles = latencies.percentile(0.99);
    report.meanLatencyCycles = latencies.mean();
    const double span = static_cast<double>(std::max<uint64_t>(
        makespan, 1));
    report.imagesPerSecond =
        static_cast<double>(report.completed) * kCyclesPerSecond / span;
    report.utilization =
        busy_cycles / (static_cast<double>(config.instances) * span);
    if (faultsEnabled(config.faults)) {
        uint64_t up_cycles = 0;
        for (size_t i = 0; i < instances; i++)
            up_cycles +=
                upCyclesBefore(config.faults, static_cast<int>(i),
                               makespan);
        report.availability =
            static_cast<double>(up_cycles) /
            (static_cast<double>(config.instances) * span);
    }
    report.p99FaultedCycles = faulted_latencies.count() > 0
                                  ? faulted_latencies.percentile(0.99)
                                  : 0;
    return report;
}

} // namespace

ServingReport
simulateServing(const BatchCostCurve &curve, const ServingConfig &config)
{
    checkServingConfig(curve, config);
    return runFleet(curve, config);
}

std::vector<ServingReport>
runServingSweep(const std::vector<dnn::Network> &networks,
                const std::vector<EngineSelection> &engines,
                const EngineRegistry &registry,
                const ServingSweepOptions &options)
{
    PRA_CHECK(!options.offeredPerSecond.empty(),
              "runServingSweep: no offered rates");
    for (double rate : options.offeredPerSecond)
        PRA_CHECK(rate > 0.0 && rate <= kCyclesPerSecond,
                  "runServingSweep: offered rate must be in "
                  "(0, 1e9] images/s");

    // Stage 1 — expensive, parallel: cost curves are grid cells, and
    // every curve is bit-identical across schedules.
    const size_t cells = networks.size() * engines.size();
    std::vector<BatchCostCurve> curves(cells);
    runGrid(networks, engines, registry, options, 0, cells,
            [&](size_t cell, const dnn::Network &network,
                const Engine &engine, const WorkloadSource &source,
                const util::InnerExecutor &exec) {
                curves[cell] = buildBatchCostCurve(
                    network, engine, source, options.accel,
                    options.sample, exec,
                    options.serving.policy.maxBatch);
            });

    // Stage 2 — cheap, serial: one event loop per (cell, rate), in
    // fixed report order.
    std::vector<ServingReport> reports;
    reports.reserve(cells * options.offeredPerSecond.size());
    for (const auto &curve : curves) {
        for (double rate : options.offeredPerSecond) {
            ServingConfig config = options.serving;
            config.arrival.meanGapCycles = kCyclesPerSecond / rate;
            reports.push_back(simulateServing(curve, config));
        }
    }
    return reports;
}

std::vector<double>
parseTraffic(const std::string &list)
{
    std::vector<double> rates;
    for (const auto &item : util::splitList(list)) {
        double rate = 0.0;
        size_t parsed = 0;
        try {
            rate = std::stod(item, &parsed);
        } catch (...) {
            parsed = 0;
        }
        if (parsed != item.size() || !(rate > 0.0) ||
            rate > kCyclesPerSecond)
            util::fatal("--traffic rates must be positive images/s "
                        "up to 1e9 (got '" + item + "')");
        rates.push_back(rate);
    }
    if (rates.empty())
        util::fatal("--traffic lists no rates");
    return rates;
}

void
writeServingCsv(std::ostream &out,
                const std::vector<ServingReport> &reports)
{
    util::CsvWriter csv(out);
    // The degraded-serving columns appear only when some report
    // configured the degraded layer, so historical (fault-free) CSVs
    // — and the committed goldens that pin them — keep their exact
    // shape.
    bool degraded = false;
    for (const auto &r : reports)
        degraded = degraded || r.degraded;

    std::vector<std::string> header = {
        "network", "engine", "arrival", "offered_per_s",
        "instances", "max_batch", "timeout_cycles",
        "requests", "dispatches", "mean_batch",
        "p50_cycles", "p95_cycles", "p99_cycles",
        "mean_latency_cycles", "images_per_s",
        "utilization", "makespan_cycles"};
    if (degraded) {
        const char *extra[] = {
            "mtbf_cycles", "mttr_cycles", "fault_dist", "queue_cap",
            "degrade_watermark", "retry_limit", "backoff_cycles",
            "completed", "retries", "permanent_failures",
            "shed_requests", "killed_batches", "instance_failures",
            "degraded_dispatches", "availability",
            "p99_faulted_cycles"};
        header.insert(header.end(), std::begin(extra),
                      std::end(extra));
    }
    csv.writeHeader(header);

    for (const auto &r : reports) {
        std::vector<std::string> row = {
            r.networkName, r.engineName,
            arrivalKindName(r.arrivalKind),
            roundTrip(r.offeredPerSecond),
            std::to_string(r.instances),
            std::to_string(r.maxBatch),
            std::to_string(r.timeoutCycles),
            std::to_string(r.requests),
            std::to_string(r.dispatches),
            roundTrip(r.meanBatch),
            std::to_string(r.p50Cycles),
            std::to_string(r.p95Cycles),
            std::to_string(r.p99Cycles),
            roundTrip(r.meanLatencyCycles),
            roundTrip(r.imagesPerSecond),
            roundTrip(r.utilization),
            std::to_string(r.makespanCycles)};
        if (degraded) {
            const std::string tail[] = {
                std::to_string(r.mtbfCycles),
                std::to_string(r.mttrCycles),
                faultKindName(r.faultKind),
                std::to_string(r.queueCap),
                std::to_string(r.degradeWatermark),
                std::to_string(r.retryLimit),
                std::to_string(r.backoffBaseCycles),
                std::to_string(r.completed),
                std::to_string(r.retries),
                std::to_string(r.permanentFailures),
                std::to_string(r.shedRequests),
                std::to_string(r.killedBatches),
                std::to_string(r.instanceFailures),
                std::to_string(r.degradedDispatches),
                roundTrip(r.availability),
                std::to_string(r.p99FaultedCycles)};
            row.insert(row.end(), std::begin(tail), std::end(tail));
        }
        csv.writeRow(row);
    }
}

} // namespace sim
} // namespace pra
