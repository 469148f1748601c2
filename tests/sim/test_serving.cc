/**
 * @file
 * Tests for the serving subsystem: counter-based arrivals, the
 * max-batch + timeout dispatch rule, the incremental batch cost
 * curve, the fleet event loop, and the determinism of the serving
 * sweep's CSV across threads and cache modes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/memory/memory_config.h"
#include "sim/memory/memory_model.h"
#include "sim/serving/serving_sim.h"
#include "support/grid_oracle.h"
#include "util/random.h"
#include "util/stats.h"

namespace pra {
namespace sim {
namespace {

std::vector<EngineSelection>
allKindsGrid()
{
    std::vector<EngineSelection> grid;
    for (const auto &kind : models::builtinEngines().kinds())
        grid.push_back({kind, {}});
    return grid;
}

TEST(Arrival, GapIsAPureFunctionOfSeedAndIndex)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 1234.5;
    for (int i : {0, 1, 7, 4096})
        EXPECT_EQ(arrivalGap(spec, i), arrivalGap(spec, i)) << i;

    ArrivalSpec reseeded = spec;
    reseeded.seed = spec.seed + 1;
    bool any_differs = false;
    for (int i = 0; i < 16; i++)
        any_differs |= arrivalGap(spec, i) != arrivalGap(reseeded, i);
    EXPECT_TRUE(any_differs);
}

TEST(Arrival, UniformIsAFixedRoundedGap)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Uniform;
    spec.meanGapCycles = 250.5;
    auto arrivals = generateArrivals(spec, 4);
    ASSERT_EQ(arrivals.size(), 4u);
    // llround(250.5) = 251, evenly spaced from the first request.
    EXPECT_EQ(arrivals[0], 251u);
    EXPECT_EQ(arrivals[1], 502u);
    EXPECT_EQ(arrivals[2], 753u);
    EXPECT_EQ(arrivals[3], 1004u);
}

TEST(Arrival, TracePrefixIsStable)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 777.0;
    auto short_trace = generateArrivals(spec, 8);
    auto long_trace = generateArrivals(spec, 64);
    for (size_t i = 0; i < short_trace.size(); i++)
        EXPECT_EQ(short_trace[i], long_trace[i]) << i;
}

TEST(Arrival, PoissonGapsAverageNearTheMean)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 1000.0;
    double sum = 0.0;
    const int n = 4096;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(arrivalGap(spec, i));
    double mean = sum / n;
    EXPECT_GT(mean, 900.0);
    EXPECT_LT(mean, 1100.0);
}

TEST(Arrival, GapsNeverAliasToZero)
{
    // Exponential draws near zero round up to one full cycle, so the
    // trace stays strictly increasing.
    ArrivalSpec spec;
    spec.meanGapCycles = 1.0;
    auto arrivals = generateArrivals(spec, 256);
    for (size_t i = 1; i < arrivals.size(); i++)
        EXPECT_LT(arrivals[i - 1], arrivals[i]);
}

TEST(ArrivalDeathTest, RejectsDegenerateSpecs)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 0.5;
    EXPECT_DEATH(arrivalGap(spec, 0), "mean gap");
    ArrivalSpec ok;
    EXPECT_DEATH(arrivalGap(ok, -1), "negative");
    EXPECT_DEATH(generateArrivals(ok, 0), "at least one");
    EXPECT_DEATH(parseArrivalKind("bursty"), "uniform or poisson");
}

TEST(Batching, TimeoutZeroDispatchesGreedily)
{
    BatchingPolicy greedy{8, 0};
    EXPECT_EQ(dispatchCycle(greedy, 0, 1000, 2000), 1000u);
    EXPECT_EQ(dispatchCycle(greedy, 5000, 1000, 2000), 5000u);
}

TEST(Batching, FillWinsWhenItBeatsTheTimeout)
{
    BatchingPolicy policy{8, 10000};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, 2000), 2000u);
}

TEST(Batching, TimeoutCapsTheHeadOfLineWait)
{
    BatchingPolicy policy{8, 500};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, 2000), 1500u);
}

TEST(Batching, NeverFillingBatchWaitsOnlyForTheTimeout)
{
    BatchingPolicy policy{8, 500};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, kNeverFills), 1500u);
}

TEST(Batching, SaturatedDeadlineFallsBackToTheHead)
{
    // A huge timeout saturates instead of wrapping; with no filling
    // request either, the dispatch goes out at the head's arrival.
    BatchingPolicy policy{8, kNeverFills};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, kNeverFills), 1000u);
    BatchingPolicy small{8, 100};
    EXPECT_EQ(dispatchCycle(small, 0, kNeverFills - 10, kNeverFills),
              kNeverFills - 10);
}

TEST(Batching, DeadlineSaturationBoundaryIsExact)
{
    // head + timeout == UINT64_MAX is exactly the "never" sentinel
    // (deadline falls back to the head); one cycle short of it is a
    // real finite deadline; one cycle past it must clamp rather than
    // wrap around to a tiny deadline that dispatches immediately.
    BatchingPolicy policy{8, 100};
    EXPECT_EQ(dispatchCycle(policy, 0, kNeverFills - 101, kNeverFills),
              kNeverFills - 1);
    EXPECT_EQ(dispatchCycle(policy, 0, kNeverFills - 100, kNeverFills),
              kNeverFills - 100);
    EXPECT_EQ(dispatchCycle(policy, 0, kNeverFills - 50, kNeverFills),
              kNeverFills - 50);
}

TEST(BatchingDeathTest, RejectsBadPolicyAndOrdering)
{
    BatchingPolicy bad{0, 0};
    EXPECT_DEATH(dispatchCycle(bad, 0, 0, 0), "maxBatch");
    BatchingPolicy ok{2, 0};
    EXPECT_DEATH(dispatchCycle(ok, 0, 1000, 999), "fill precedes");
}

TEST(CostCurve, PrefixesMatchStandaloneRunBatch)
{
    // The incremental construction must reproduce a standalone
    // runBatch(b) + memory model bit for bit at every prefix.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    SampleSpec sample{2};
    util::InnerExecutor exec;
    const int max_batch = 3;
    for (const char *kind : {"dadn", "pragmatic"}) {
        auto engine = models::builtinEngines().create(kind);
        BatchCostCurve curve = buildBatchCostCurve(
            net, *engine, source, accel, sample, exec, max_batch);
        ASSERT_EQ(curve.batchSystemCycles.size(),
                  static_cast<size_t>(max_batch));
        for (int b = 1; b <= max_batch; b++) {
            NetworkResult batch = engine->runBatch(
                net, source, accel, sample, exec, b);
            applyMemoryModel(net, accel, batch);
            EXPECT_EQ(curve.batchSystemCycles[b - 1],
                      batch.totalSystemCycles())
                << kind << " b=" << b;
        }
        for (size_t i = 1; i < curve.batchSystemCycles.size(); i++)
            EXPECT_GE(curve.batchSystemCycles[i],
                      curve.batchSystemCycles[i - 1])
                << kind;
    }
}

BatchCostCurve
syntheticCurve(std::vector<double> cycles)
{
    BatchCostCurve curve;
    curve.networkName = "Synthetic";
    curve.engineName = "Fixed";
    curve.batchSystemCycles = std::move(cycles);
    return curve;
}

ServingConfig
uniformConfig(double gap, int requests, int max_batch,
              uint64_t timeout)
{
    ServingConfig config;
    config.arrival.kind = ArrivalKind::Uniform;
    config.arrival.meanGapCycles = gap;
    config.requests = requests;
    config.policy.maxBatch = max_batch;
    config.policy.timeoutCycles = timeout;
    return config;
}

TEST(ServingSim, GreedyUniformTraceIsHandCheckable)
{
    // Uniform arrivals at 1000, 2000, 3000, 4000; one instance,
    // batch cost 100/150 cycles, greedy dispatch: each request goes
    // out alone at its arrival and finishes 100 cycles later.
    ServingReport r = simulateServing(
        syntheticCurve({100.0, 150.0}), uniformConfig(1000.0, 4, 2, 0));
    EXPECT_EQ(r.dispatches, 4);
    EXPECT_DOUBLE_EQ(r.meanBatch, 1.0);
    EXPECT_EQ(r.makespanCycles, 4100u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 100.0);
    EXPECT_DOUBLE_EQ(r.utilization, 400.0 / 4100.0);
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 4.0 * 1e9 / 4100.0);
}

TEST(ServingSim, TimeoutHoldsTheHeadToFillBatches)
{
    // Same trace with a 1000-cycle timeout: request 0 waits for
    // request 1 (deadline and fill coincide at 2000), so the fleet
    // runs two batches of two. Latencies are {1150, 150} per batch;
    // the log-spaced histogram reports conservative bucket bounds.
    ServingReport r = simulateServing(
        syntheticCurve({100.0, 150.0}),
        uniformConfig(1000.0, 4, 2, 1000));
    EXPECT_EQ(r.dispatches, 2);
    EXPECT_DOUBLE_EQ(r.meanBatch, 2.0);
    EXPECT_EQ(r.makespanCycles, 4150u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 650.0);
    EXPECT_DOUBLE_EQ(r.utilization, 300.0 / 4150.0);
    // 150 lands in the two-wide bucket [150, 151]; 1150 in the
    // sixteen-wide bucket [1136, 1151].
    EXPECT_EQ(r.p50Cycles, 151u);
    EXPECT_EQ(r.p95Cycles, 1151u);
    EXPECT_EQ(r.p99Cycles, 1151u);
}

TEST(ServingSim, FleetSharesLoadAcrossInstances)
{
    // Cost 3000 > gap 1000 saturates one instance; two instances
    // alternate (earliest-free, lowest id on ties) and every request
    // still dispatches alone with maxBatch = 1.
    ServingConfig config = uniformConfig(1000.0, 4, 1, 0);
    config.instances = 2;
    ServingReport r =
        simulateServing(syntheticCurve({3000.0}), config);
    EXPECT_EQ(r.dispatches, 4);
    EXPECT_EQ(r.makespanCycles, 8000u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles,
                     (3000.0 + 3000.0 + 4000.0 + 4000.0) / 4.0);
    EXPECT_DOUBLE_EQ(r.utilization, 12000.0 / (2.0 * 8000.0));
}

TEST(ServingSim, SubCycleCostsChargeAtLeastOneCycle)
{
    ServingReport r = simulateServing(syntheticCurve({0.2}),
                                      uniformConfig(10.0, 2, 1, 0));
    EXPECT_EQ(r.dispatches, 2);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_EQ(r.makespanCycles, 21u);
}

TEST(ServingSimDeathTest, RejectsDegenerateConfigs)
{
    BatchCostCurve curve = syntheticCurve({100.0});
    ServingConfig config = uniformConfig(1000.0, 4, 2, 0);
    EXPECT_DEATH(simulateServing(curve, config), "maxBatch");
    ServingConfig no_instances = uniformConfig(1000.0, 4, 1, 0);
    no_instances.instances = 0;
    EXPECT_DEATH(simulateServing(curve, no_instances), "instance");
    ServingConfig no_requests = uniformConfig(1000.0, 1, 1, 0);
    no_requests.requests = 0;
    EXPECT_DEATH(simulateServing(curve, no_requests), "request");
}

ServingSweepOptions
smokeOptions(int threads)
{
    ServingSweepOptions options;
    options.threads = threads;
    options.sample.maxUnits = 2;
    options.offeredPerSecond = {1e4, 1e7};
    options.serving.requests = 32;
    options.serving.policy.maxBatch = 4;
    options.serving.policy.timeoutCycles = 1000000;
    options.serving.arrival.seed = options.seed;
    return options;
}

std::string
servingCsv(const std::vector<ServingReport> &reports)
{
    std::ostringstream csv;
    writeServingCsv(csv, reports);
    return csv.str();
}

TEST(ServingSweep, CsvMatchesUncachedOracleAcrossThreads)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto grid = allKindsGrid();
    // A knobbed selection serves end to end with the same
    // determinism as the defaults.
    grid.push_back(
        parseEngineSpec("dynamic_stripes:granularity=4:column-regs=2"));
    const auto &registry = models::builtinEngines();
    const std::string oracle = servingCsv(
        uncachedServingSweep(networks, grid, registry, smokeOptions(1)));
    for (int threads : {1, 4})
        EXPECT_EQ(servingCsv(runServingSweep(networks, grid, registry,
                                             smokeOptions(threads))),
                  oracle)
            << "threads=" << threads;
}

TEST(ServingSweep, ReportsFollowGridThenRateOrder)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"stripes", {}},
                                         {"dadn", {}}};
    auto reports = runServingSweep(networks, grid,
                                   models::builtinEngines(),
                                   smokeOptions(1));
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(reports[0].engineName, "Stripes");
    EXPECT_DOUBLE_EQ(reports[0].offeredPerSecond, 1e4);
    EXPECT_EQ(reports[1].engineName, "Stripes");
    EXPECT_DOUBLE_EQ(reports[1].offeredPerSecond, 1e7);
    EXPECT_EQ(reports[2].engineName, "DaDN");
    EXPECT_EQ(reports[3].engineName, "DaDN");

    std::ostringstream csv;
    writeServingCsv(csv, reports);
    std::istringstream lines(csv.str());
    std::string header, row;
    std::getline(lines, header);
    EXPECT_EQ(header.rfind("network,engine,arrival,offered_per_s", 0),
              0u);
    std::getline(lines, row);
    EXPECT_EQ(row.rfind("Tiny,Stripes,poisson,10000,", 0), 0u);
}

TEST(ServingSweep, SaturationFillsBatchesAndStarvationDoesNot)
{
    // At an offered load far above capacity every dispatch fills the
    // batch cap; far below it (with a finite timeout) the dispatcher
    // times out and sends singletons.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    ServingSweepOptions options = smokeOptions(1);
    options.offeredPerSecond = {1.0, 1e9};
    options.serving.policy.timeoutCycles = 10;
    auto reports = runServingSweep(networks, grid,
                                   models::builtinEngines(), options);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_DOUBLE_EQ(reports[0].meanBatch, 1.0);
    EXPECT_DOUBLE_EQ(reports[1].meanBatch, 4.0);
    EXPECT_GT(reports[1].utilization, reports[0].utilization);
}

/**
 * Fault-free reference: a pull loop over the sorted trace. Each
 * dispatch takes the earliest-free instance (lowest id on ties),
 * launches at dispatchCycle and takes everything that has arrived by
 * then, up to the batch cap. With the fault layer, queue cap and
 * watermark off, simulateServing must match it field for field.
 */
ServingReport
referenceFleet(const BatchCostCurve &curve, const ServingConfig &config)
{
    const std::vector<uint64_t> arrivals =
        generateArrivals(config.arrival, config.requests);
    const size_t n = arrivals.size();
    const size_t max_batch = static_cast<size_t>(config.policy.maxBatch);

    std::vector<uint64_t> free_at(static_cast<size_t>(config.instances),
                                  0);
    util::Histogram latencies = util::Histogram::logSpaced(
        kLatencyHistogramMax, kLatencyHistogramSubBits);
    uint64_t makespan = 0;
    double busy_cycles = 0.0;
    int64_t dispatches = 0;

    size_t k = 0;
    while (k < n) {
        size_t j = 0;
        for (size_t i = 1; i < free_at.size(); i++)
            if (free_at[i] < free_at[j])
                j = i;

        const uint64_t head = arrivals[k];
        const size_t fill_idx = k + max_batch - 1;
        const uint64_t fill =
            fill_idx < n ? arrivals[fill_idx] : kNeverFills;
        const uint64_t start =
            dispatchCycle(config.policy, free_at[j], head, fill);

        size_t take = 1;
        while (take < max_batch && k + take < n &&
               arrivals[k + take] <= start)
            take++;

        const uint64_t cost_cycles = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   std::llround(curve.batchSystemCycles[take - 1])));
        const uint64_t done = start + cost_cycles;
        for (size_t r = k; r < k + take; r++)
            latencies.add(done - arrivals[r]);
        busy_cycles += static_cast<double>(cost_cycles);
        free_at[j] = done;
        makespan = std::max(makespan, done);
        dispatches++;
        k += take;
    }

    ServingReport report;
    report.dispatches = dispatches;
    report.meanBatch = static_cast<double>(config.requests) /
                       static_cast<double>(dispatches);
    report.p50Cycles = latencies.percentile(0.50);
    report.p95Cycles = latencies.percentile(0.95);
    report.p99Cycles = latencies.percentile(0.99);
    report.meanLatencyCycles = latencies.mean();
    report.imagesPerSecond = static_cast<double>(config.requests) *
                             kCyclesPerSecond /
                             static_cast<double>(makespan);
    report.utilization =
        busy_cycles / (static_cast<double>(config.instances) *
                       static_cast<double>(makespan));
    report.makespanCycles = makespan;
    report.completed = config.requests;
    return report;
}

/** A monotone 8-entry cost curve with fractional cycle costs. */
BatchCostCurve
randomCurve(util::Xoshiro256 &rng)
{
    std::vector<double> cycles;
    double cost = 500.0 + 20000.0 * rng.nextDouble();
    for (int b = 0; b < 8; b++) {
        cycles.push_back(cost);
        cost += cost * 0.6 * rng.nextDouble() / (b + 1);
    }
    return syntheticCurve(cycles);
}

/**
 * A random fault-free config whose load on @p curve runs from nearly
 * idle to several times over capacity.
 */
ServingConfig
randomConfig(util::Xoshiro256 &rng, const BatchCostCurve &curve,
             int max_requests)
{
    ServingConfig config;
    config.instances = static_cast<int>(rng.nextInRange(1, 4));
    config.policy.maxBatch = static_cast<int>(rng.nextInRange(1, 8));
    config.requests = static_cast<int>(rng.nextInRange(1, max_requests));
    config.arrival.kind =
        rng.nextBool(0.5) ? ArrivalKind::Uniform : ArrivalKind::Poisson;
    config.arrival.seed = rng.next();
    const double load = std::exp2(rng.nextDouble() * 10.0 - 6.0);
    config.arrival.meanGapCycles = std::max(
        1.0, curve.batchSystemCycles[0] / config.instances / load);
    const uint64_t gap =
        static_cast<uint64_t>(config.arrival.meanGapCycles);
    switch (rng.nextBounded(4)) {
      case 0: config.policy.timeoutCycles = 0; break;
      case 1:
        config.policy.timeoutCycles =
            static_cast<uint64_t>(rng.nextInRange(1, 2 * gap));
        break;
      case 2:
        config.policy.timeoutCycles = static_cast<uint64_t>(
            rng.nextInRange(10 * gap, 100 * gap));
        break;
      default: config.policy.timeoutCycles = UINT64_MAX; break;
    }
    return config;
}

std::string
configLabel(int index, const ServingConfig &c)
{
    return "config " + std::to_string(index) + ": " +
           std::to_string(c.instances) + " instances, batch " +
           std::to_string(c.policy.maxBatch) + ", timeout " +
           std::to_string(c.policy.timeoutCycles) + ", " +
           arrivalKindName(c.arrival.kind) + " gap " +
           std::to_string(c.arrival.meanGapCycles) + ", " +
           std::to_string(c.requests) + " requests, mtbf " +
           std::to_string(c.faults.mtbfCycles) + " mttr " +
           std::to_string(c.faults.mttrCycles) + ", cap " +
           std::to_string(c.queueCap) + ", watermark " +
           std::to_string(c.degradeWatermark) + ", retries " +
           std::to_string(c.retry.maxRetries) + " backoff " +
           std::to_string(c.retry.backoffBaseCycles);
}

TEST(ServingSim, FaultFreeRunsMatchThePullLoopReference)
{
    // Generated fault-free configs (1-4 instances, batch 1-8, greedy
    // / short / long / saturating timeouts, uniform and Poisson
    // traces up to 2,000 requests): every field the reference
    // computes must match exactly, doubles included.
    util::Xoshiro256 rng(0x5e7f1ee7);
    for (int c = 0; c < 1000; c++) {
        const BatchCostCurve curve = randomCurve(rng);
        const ServingConfig config = randomConfig(rng, curve, 2000);
        SCOPED_TRACE(configLabel(c, config));
        const ServingReport want = referenceFleet(curve, config);
        const ServingReport got = simulateServing(curve, config);
        ASSERT_EQ(got.dispatches, want.dispatches);
        ASSERT_EQ(got.meanBatch, want.meanBatch);
        ASSERT_EQ(got.p50Cycles, want.p50Cycles);
        ASSERT_EQ(got.p95Cycles, want.p95Cycles);
        ASSERT_EQ(got.p99Cycles, want.p99Cycles);
        ASSERT_EQ(got.meanLatencyCycles, want.meanLatencyCycles);
        ASSERT_EQ(got.imagesPerSecond, want.imagesPerSecond);
        ASSERT_EQ(got.utilization, want.utilization);
        ASSERT_EQ(got.makespanCycles, want.makespanCycles);
        ASSERT_EQ(got.completed, want.completed);
        ASSERT_FALSE(got.degraded);
        ASSERT_EQ(got.retries, 0);
        ASSERT_EQ(got.shedRequests, 0);
        ASSERT_EQ(got.permanentFailures, 0);
        ASSERT_EQ(got.killedBatches, 0);
        ASSERT_EQ(got.degradedDispatches, 0);
        ASSERT_EQ(got.availability, 1.0);
        ASSERT_EQ(got.p99FaultedCycles, 0u);
    }
}

TEST(ServingFaults, GeneratedFaultedRunsConserveRequests)
{
    // Generated faulted configs: fixed and exponential faults, queue
    // cap and watermark 0-16, retries 0-3, backoff from 0 up to a
    // saturating base. Every request resolves exactly once,
    // percentiles are ordered, and a rerun is bit-identical.
    util::Xoshiro256 rng(0xc4a05);
    int64_t retries = 0, shed = 0, killed = 0, permanent = 0;
    for (int c = 0; c < 1000; c++) {
        BatchCostCurve curve = randomCurve(rng);
        ServingConfig config = randomConfig(rng, curve, 400);
        // A saturated retry is admitted only at the end of time, so a
        // run with one must let the fault timelines saturate within a
        // few thousand windows: its batches take 2^55 cycles and up.
        const bool saturating = rng.nextBounded(8) == 0;
        if (saturating)
            for (double &cycles : curve.batchSystemCycles)
                cycles *= std::exp2(46.0);
        const int64_t cost =
            static_cast<int64_t>(curve.batchSystemCycles[0]);
        config.faults.kind =
            rng.nextBool(0.5) ? FaultKind::Fixed : FaultKind::Exponential;
        config.faults.seed = rng.next();
        if (rng.nextBounded(8) != 0) {
            config.faults.mtbfCycles = static_cast<uint64_t>(
                rng.nextInRange(cost / 2, (saturating ? 4 : 40) * cost));
            config.faults.mttrCycles =
                static_cast<uint64_t>(rng.nextInRange(1, 4 * cost));
        }
        config.queueCap = static_cast<int>(rng.nextInRange(0, 16));
        config.degradeWatermark =
            static_cast<int>(rng.nextInRange(0, 16));
        config.retry.maxRetries = static_cast<int>(rng.nextInRange(0, 3));
        switch (saturating ? 3 : rng.nextBounded(3)) {
          case 0: config.retry.backoffBaseCycles = 0; break;
          case 1:
            config.retry.backoffBaseCycles =
                static_cast<uint64_t>(rng.nextInRange(1, cost));
            break;
          case 2:
            config.retry.backoffBaseCycles =
                static_cast<uint64_t>(rng.nextInRange(cost, 10 * cost));
            break;
          default: config.retry.backoffBaseCycles = UINT64_MAX / 2;
        }
        SCOPED_TRACE(configLabel(c, config));
        const ServingReport r = simulateServing(curve, config);
        ASSERT_EQ(r.completed + r.shedRequests + r.permanentFailures,
                  config.requests);
        ASSERT_LE(r.p50Cycles, r.p95Cycles);
        ASSERT_LE(r.p95Cycles, r.p99Cycles);
        std::ostringstream first, second;
        writeServingCsv(first, {r});
        writeServingCsv(second, {simulateServing(curve, config)});
        ASSERT_EQ(first.str(), second.str());
        retries += r.retries;
        shed += r.shedRequests;
        killed += r.killedBatches;
        permanent += r.permanentFailures;
    }
    // The generator really reaches every degraded outcome.
    EXPECT_GT(retries, 0);
    EXPECT_GT(shed, 0);
    EXPECT_GT(killed, 0);
    EXPECT_GT(permanent, 0);
}

ServingConfig
faultedConfig(double gap, int requests, uint64_t mtbf, uint64_t mttr)
{
    ServingConfig config = uniformConfig(gap, requests, 1, 0);
    config.faults.mtbfCycles = mtbf;
    config.faults.mttrCycles = mttr;
    config.faults.kind = FaultKind::Fixed;
    config.retry.backoffBaseCycles = 0;
    return config;
}

TEST(ServingFaults, FixedFaultKillsBatchAndRetrySucceeds)
{
    // Arrivals at 1000/2000, cost 100, greedy batch-1 dispatch; the
    // instance fail-stops at exactly 1050 (mid-batch) and repairs at
    // 1150. Request 0's first attempt dies, its zero-backoff retry
    // launches at the repair and completes at 1250 (latency 250);
    // request 1 runs cleanly (latency 100).
    ServingReport r = simulateServing(
        syntheticCurve({100.0}), faultedConfig(1000.0, 2, 1050, 100));
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.dispatches, 3);
    EXPECT_EQ(r.killedBatches, 1);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.instanceFailures, 1);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.permanentFailures, 0);
    EXPECT_EQ(r.shedRequests, 0);
    EXPECT_EQ(r.makespanCycles, 2100u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 175.0);
    // Interrupted work counts as busy up to the kill: 50 cycles of
    // the doomed attempt plus two clean 100-cycle batches.
    EXPECT_DOUBLE_EQ(r.utilization, 250.0 / 2100.0);
    // Up over [0, 1050) and [1150, 2100).
    EXPECT_DOUBLE_EQ(r.availability, 2000.0 / 2100.0);
    // Latency 250 of the killed-and-retried request, conservative
    // log-bucket bound 251.
    EXPECT_EQ(r.p99FaultedCycles, 251u);
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 2.0 * 1e9 / 2100.0);
}

TEST(ServingFaults, RetryBudgetExhaustionIsAPermanentFailure)
{
    // The instance fails at 50/110/170 (up 50, repair 10) and the
    // single request's attempts launch at 10/60/120 — each killed
    // mid-flight. After maxRetries = 2 requeues the third kill is a
    // permanent failure.
    ServingConfig config = faultedConfig(10.0, 1, 50, 10);
    config.retry.maxRetries = 2;
    ServingReport r =
        simulateServing(syntheticCurve({100.0}), config);
    EXPECT_EQ(r.dispatches, 3);
    EXPECT_EQ(r.killedBatches, 3);
    EXPECT_EQ(r.retries, 2);
    EXPECT_EQ(r.instanceFailures, 3);
    EXPECT_EQ(r.completed, 0);
    EXPECT_EQ(r.permanentFailures, 1);
    EXPECT_EQ(r.makespanCycles, 170u);
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 0.0);
    // Killed attempts ran [10,50), [60,110), [120,170).
    EXPECT_DOUBLE_EQ(r.utilization, 140.0 / 170.0);
    // Up over [0,50), [60,110), [120,170).
    EXPECT_DOUBLE_EQ(r.availability, 150.0 / 170.0);
}

TEST(ServingFaults, SameCycleRetryQueuesByIdAheadOfLaterArrival)
{
    // Arrivals at 100/200, cost 150, batch-1 greedy; the instance
    // fails at 200 and 450 (fixed up-time 200, repair 50). Request 0
    // is killed at 200 and its zero-backoff retry re-enters at 200,
    // the cycle request 1 arrives: the queue orders (200, 0) ahead of
    // (200, 1). Request 0 reruns [250, 400) (latency 300); request 1
    // runs [400, 550), dies at 450 and reruns [500, 650) (latency
    // 450). Both completions are retried ones.
    ServingReport r = simulateServing(
        syntheticCurve({150.0}), faultedConfig(100.0, 2, 200, 50));
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.killedBatches, 2);
    EXPECT_EQ(r.retries, 2);
    EXPECT_EQ(r.makespanCycles, 650u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 375.0);
    // 450 lands in the four-wide bucket [448, 451].
    EXPECT_EQ(r.p99FaultedCycles, 451u);
}

TEST(ServingDegrade, ArrivalsEnterTheQueueBeforeSameCycleRetries)
{
    // The scenario above with a queue bound of 1: request 1 arrives
    // at 200 and takes the only slot, so request 0's retry, ready in
    // the same cycle, sheds. Request 1 runs [250, 400).
    ServingConfig config = faultedConfig(100.0, 2, 200, 50);
    config.queueCap = 1;
    ServingReport r =
        simulateServing(syntheticCurve({150.0}), config);
    EXPECT_EQ(r.completed, 1);
    EXPECT_EQ(r.shedRequests, 1);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.makespanCycles, 400u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 200.0);
    EXPECT_EQ(r.p99FaultedCycles, 0u);
}

TEST(ServingDegrade, QueueCapShedsArrivalsAtTheBound)
{
    // Arrivals at 100..400, cost 1000, batch-1 greedy, queue bound 1:
    // request 0 dispatches at once, request 1 queues, requests 2 and
    // 3 find the queue full and shed.
    ServingConfig config = uniformConfig(100.0, 4, 1, 0);
    config.queueCap = 1;
    ServingReport r =
        simulateServing(syntheticCurve({1000.0}), config);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.dispatches, 2);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.shedRequests, 2);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(r.permanentFailures, 0);
    EXPECT_EQ(r.makespanCycles, 2100u);
    // Latencies 1000 (request 0) and 1900 (request 1).
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 1450.0);
    EXPECT_DOUBLE_EQ(r.utilization, 2000.0 / 2100.0);
    EXPECT_DOUBLE_EQ(r.availability, 1.0);
    // Goodput counts only completions.
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 2.0 * 1e9 / 2100.0);
}

TEST(ServingDegrade, WatermarkHalvesBatchesAndGoesGreedy)
{
    // Six arrivals 10..60 at gap 10, flat cost 100 for batches 1..4,
    // timeout 10000. Un-degraded the dispatcher would hold for full
    // batches of 4; with the watermark at queue occupancy 2 it flips
    // to greedy half batches, so the fleet runs three batches of two
    // back to back.
    ServingConfig config = uniformConfig(10.0, 6, 4, 10000);
    config.degradeWatermark = 2;
    ServingReport r = simulateServing(
        syntheticCurve({100.0, 100.0, 100.0, 100.0}), config);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.dispatches, 3);
    EXPECT_EQ(r.degradedDispatches, 3);
    EXPECT_DOUBLE_EQ(r.meanBatch, 2.0);
    EXPECT_EQ(r.completed, 6);
    EXPECT_EQ(r.shedRequests, 0);
    EXPECT_EQ(r.makespanCycles, 320u);
}

TEST(ServingCsv, DegradedColumnsAppearOnlyWhenConfigured)
{
    BatchCostCurve curve = syntheticCurve({100.0});
    ServingConfig plain = uniformConfig(1000.0, 2, 1, 0);

    std::ostringstream plain_csv;
    writeServingCsv(plain_csv, {simulateServing(curve, plain)});
    EXPECT_EQ(plain_csv.str().find("mtbf_cycles"), std::string::npos);

    // Knobs of a layer that is off leave the flag and the historical
    // CSV shape alone: the column set follows configuration only.
    ServingConfig knobs_off = plain;
    knobs_off.faults.kind = FaultKind::Fixed;
    knobs_off.faults.mttrCycles = 5;
    knobs_off.retry.maxRetries = 0;
    knobs_off.retry.backoffBaseCycles = 0;
    std::ostringstream knobs_off_csv;
    writeServingCsv(knobs_off_csv, {simulateServing(curve, knobs_off)});
    EXPECT_EQ(plain_csv.str(), knobs_off_csv.str());

    ServingConfig capped = plain;
    capped.queueCap = 16;
    std::ostringstream degraded_csv;
    writeServingCsv(degraded_csv, {simulateServing(curve, capped)});
    const std::string out = degraded_csv.str();
    EXPECT_NE(out.find("mtbf_cycles"), std::string::npos);
    EXPECT_NE(out.find("availability"), std::string::npos);
    EXPECT_NE(out.find("p99_faulted_cycles"), std::string::npos);
    // One degraded report flips the whole dump (a CSV has one
    // header), so mixed report sets stay rectangular.
    std::ostringstream mixed_csv;
    writeServingCsv(mixed_csv, {simulateServing(curve, plain),
                                simulateServing(curve, capped)});
    EXPECT_NE(mixed_csv.str().find("mtbf_cycles"), std::string::npos);
}

TEST(ServingSweep, FaultedCsvMatchesUncachedOracleAcrossThreads)
{
    // Fault schedules are counter-based pure functions, so a faulted
    // sweep must match the serial uncached oracle at any worker
    // count just like the fault-free one.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto grid = allKindsGrid();
    const auto &registry = models::builtinEngines();
    auto fault = [](ServingSweepOptions options) {
        options.serving.faults.mtbfCycles = 2000000;
        options.serving.faults.mttrCycles = 500000;
        options.serving.queueCap = 8;
        options.serving.instances = 2;
        return options;
    };
    const std::string oracle = servingCsv(uncachedServingSweep(
        networks, grid, registry, fault(smokeOptions(1))));
    EXPECT_NE(oracle.find("mtbf_cycles"), std::string::npos);
    for (int threads : {1, 4})
        EXPECT_EQ(servingCsv(runServingSweep(networks, grid, registry,
                                             fault(smokeOptions(threads)))),
                  oracle)
            << "threads=" << threads;
}

TEST(ServingFaultsDeathTest, RejectsDegenerateDegradedConfigs)
{
    BatchCostCurve curve = syntheticCurve({100.0});
    ServingConfig faulted = uniformConfig(1000.0, 2, 1, 0);
    faulted.faults.mtbfCycles = 1000;
    faulted.faults.mttrCycles = 0;
    EXPECT_DEATH(simulateServing(curve, faulted), "repair time");
    ServingConfig bad_cap = uniformConfig(1000.0, 2, 1, 0);
    bad_cap.queueCap = -1;
    EXPECT_DEATH(simulateServing(curve, bad_cap), "queue cap");
    ServingConfig bad_mark = uniformConfig(1000.0, 2, 1, 0);
    bad_mark.degradeWatermark = -2;
    EXPECT_DEATH(simulateServing(curve, bad_mark), "watermark");
    ServingConfig bad_retry = uniformConfig(1000.0, 2, 1, 0);
    bad_retry.retry.maxRetries = -1;
    EXPECT_DEATH(simulateServing(curve, bad_retry), "retry limit");
}

TEST(ServingSweepDeathTest, RejectsOutOfRangeRates)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    ServingSweepOptions zero_rate = smokeOptions(1);
    zero_rate.offeredPerSecond = {0.0};
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(), zero_rate),
                 "offered rate");
    ServingSweepOptions no_rates = smokeOptions(1);
    no_rates.offeredPerSecond.clear();
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(), no_rates),
                 "no offered rates");
}

} // namespace
} // namespace sim
} // namespace pra
