#include "workloads.h"

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>

#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "models/pragmatic/schedule.h"
#include "sim/memory/memory_config.h"
#include "sim/memory/memory_model.h"
#include "sim/sampling.h"
#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace prabench {

using namespace pra;

namespace {

std::vector<dnn::Network>
networksByName(const std::vector<std::string> &names,
               dnn::LayerSelect select)
{
    std::vector<dnn::Network> networks;
    for (const auto &name : names)
        networks.push_back(dnn::makeNetworkByName(name, select));
    return networks;
}

/** The planes one engine reads from its input stream. */
struct PlaneNeeds
{
    bool bricks = false;
    bool lanePops = false;
    bool weights = false;
    std::set<int> cycleBits;
};

/**
 * The workload cache stores a propagated trimmed stream under its
 * raw key (the two are identical there); key the warm-up the same
 * way so one stream is built once.
 */
sim::InputStream
cacheStream(sim::InputStream stream, sim::ActivationMode mode)
{
    if (mode == sim::ActivationMode::Propagated &&
        stream == sim::InputStream::Fixed16Trimmed)
        return sim::InputStream::Fixed16Raw;
    return stream;
}

/**
 * Which planes an engine of @p sel reads, from the models' public
 * contract: every brick-cost engine reads the activation brick
 * planes; pallet- and column-sync Pragmatic read the cycle plane of
 * an intermediate first-stage width; Laconic reads lane popcounts
 * and weight planes. Diffy Dynamic-Stripes summarizes its own
 * difference tensor instead.
 */
PlaneNeeds
planeNeeds(const sim::EngineSelection &sel, const sim::AccelConfig &accel)
{
    PlaneNeeds need;
    if (accel.neuronLanes != dnn::kBrickSize)
        return need;
    if (sel.kind == "pragmatic" || sel.kind == "pragmatic-col") {
        need.bricks = true;
        int bits = static_cast<int>(sim::knobInt(sel.knobs, "bits", 2));
        if (bits >= 1 && bits < models::kMaxFirstStageBits &&
            sim::cyclePlanesEnabled())
            need.cycleBits.insert(bits);
    } else if (sel.kind == "dynamic_stripes") {
        need.bricks = !sim::knobBool(sel.knobs, "diffy", false);
    } else if (sel.kind == "laconic") {
        need.bricks = need.lanePops = need.weights = true;
    }
    return need;
}

/**
 * Run each key's build exactly once: the first caller builds, and
 * every concurrent caller waits (inside a cache.wait span) until the
 * build is done.
 */
class OnceMap
{
  public:
    /** (network, layer, stream, image, part); see TracedGrid. */
    using Key = std::tuple<size_t, int, int, int, int>;

    void
    run(const Key &key, const std::function<void()> &build)
    {
        std::promise<void> promise;
        std::shared_future<void> done;
        bool first = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto [it, inserted] = done_.try_emplace(key);
            if (inserted) {
                it->second = promise.get_future().share();
                first = true;
            }
            done = it->second;
        }
        if (!first) {
            Span wait("cache.wait");
            done.get();
            return;
        }
        try {
            build();
            promise.set_value();
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
    }

  private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<void>> done_;
};

/**
 * The shared state of one traced grid: the workload cache, and the
 * warm-up that builds each synthesizer, forward pass, stream and
 * plane once, inside its layer's span, for the first cell that needs
 * it — the cell the untimed run would have built it in.
 */
class TracedGrid
{
  public:
    TracedGrid(const Setup &setup, const sim::AccelConfig &accel,
               sim::ActivationMode mode, uint64_t seed,
               Counters &counters)
        : setup_(setup), accel_(accel), mode_(mode), seed_(seed),
          counters_(counters)
    {
    }

    ~TracedGrid()
    {
        counters_.cacheHits += cache_.hits();
        counters_.cacheMisses += cache_.misses();
    }

    TracedGrid(const TracedGrid &) = delete;
    TracedGrid &operator=(const TracedGrid &) = delete;

    /** The network's shared synthesizer. */
    std::shared_ptr<const dnn::ActivationSynthesizer>
    synthesizer(size_t net)
    {
        const dnn::Network &network = setup_.networks[net];
        once_.run({net, -1, -1, -1, kSynth}, [&] {
            Span span("activation_synth");
            cache_.synthesizer(network, seed_);
        });
        return cache_.synthesizer(network, seed_);
    }

    /** A source over the shared cache, as the entry points build. */
    sim::WorkloadSource
    source(const dnn::ActivationSynthesizer &synth)
    {
        return sim::WorkloadSource(synth, cache_, mode_);
    }

    /**
     * Layer @p idx's workload for engine @p sel, fetched from
     * @p source the way Engine::runNetwork fetches it (one request),
     * with the planes that engine reads built.
     */
    std::shared_ptr<const sim::LayerWorkload>
    layer(size_t net, const sim::WorkloadSource &source, int idx,
          const sim::EngineSelection &sel, sim::InputStream stream)
    {
        if (stream == sim::InputStream::None)
            return source.layer(idx, stream);
        const int image = source.image();
        if (mode_ == sim::ActivationMode::Propagated)
            once_.run({net, -1, -1, image, kChain}, [&] {
                {
                    Span span("propagate");
                    source.chain();
                }
                for (const auto &l : setup_.networks[net].layers)
                    if (l.priced())
                        counters_.macs += l.products();
            });
        const int key = static_cast<int>(cacheStream(stream, mode_));
        std::shared_ptr<const sim::LayerWorkload> workload;
        once_.run({net, idx, key, image, kStream}, [&] {
            Span span("activation_synth");
            workload = source.layer(idx, stream);
            counters_.streams++;
            counters_.neurons +=
                static_cast<int64_t>(workload->tensor().size());
        });
        if (!workload)
            workload = source.layer(idx, stream);

        const sim::LayerWorkload &w = *workload;
        const dnn::LayerSpec &spec =
            setup_.networks[net].layers[static_cast<size_t>(idx)];
        const PlaneNeeds need = planeNeeds(sel, accel_);
        auto plane = [&](int part, const char *span_name,
                         const std::function<void()> &build) {
            once_.run({net, idx, key, image, part}, [&] {
                Span span(span_name);
                build();
            });
        };
        if (need.bricks)
            plane(kBricks, "planes", [&] {
                counters_.bricks +=
                    static_cast<int64_t>(w.brickPlanes().pop.size());
            });
        for (int bits : need.cycleBits)
            plane(kBricks + bits, "planes", [&] {
                w.cyclePlane(bits);
                counters_.cyclePlanes++;
            });
        if (need.lanePops)
            plane(kLanePops, "planes", [&] { w.lanePopPlanes(); });
        if (need.weights)
            plane(kWeights, "weight_synth", [&] {
                w.weightPlanes(spec);
                counters_.weightCodes += spec.synapses();
            });
        return workload;
    }

  private:
    /** The part of a warm-up key; kBricks + L is cycle plane L. */
    enum Part
    {
        kSynth = -3,
        kChain = -2,
        kStream = -1,
        kBricks = 0,
        kLanePops = 4,
        kWeights = 5,
    };

    const Setup &setup_;
    const sim::AccelConfig &accel_;
    sim::ActivationMode mode_;
    uint64_t seed_;
    Counters &counters_;
    sim::WorkloadCache cache_;
    OnceMap once_;
};

/**
 * Run job(network, engine) for every grid cell on a pool of the
 * setup's threads, each inside a "cell" span; adds the phase's wall
 * time to @p stats.
 */
void
forEachCell(const Setup &setup, TraceStats &stats,
            const std::function<void(size_t, size_t)> &job)
{
    const int64_t start = nowNs();
    {
        util::ThreadPool pool(setup.threads);
        for (size_t n = 0; n < setup.networks.size(); n++)
            for (size_t e = 0; e < setup.engines.size(); e++)
                pool.submit([&job, n, e] {
                    Span cell("cell");
                    job(n, e);
                });
        pool.wait();
    }
    stats.parallelWallS += static_cast<double>(nowNs() - start) * 1e-9;
    stats.threads = setup.threads;
}

/** runSweep, with Engine::runNetwork's layer loop spelled out. */
std::vector<sim::NetworkResult>
tracedSweep(const Setup &setup, Counters &counters, TraceStats &stats)
{
    const sim::SweepOptions &options = setup.sweep;
    PRA_CHECK(options.batch == 1 && options.shardCount == 1,
              "prabench: traced sweeps price whole single-image grids");
    TracedGrid grid(setup, options.accel, options.activations,
                    options.seed, counters);
    std::vector<sim::NetworkResult> results(setup.networks.size() *
                                            setup.engines.size());
    forEachCell(setup, stats, [&](size_t n, size_t e) {
        const dnn::Network &network = setup.networks[n];
        std::unique_ptr<sim::Engine> engine =
            setup.registry.create(setup.engines[e]);
        // The analytic engine overrides runNetwork; the loop below is
        // the default one every other engine runs.
        PRA_CHECK(engine->kind() != "terms",
                  "prabench: traced sweeps do not cover 'terms'");
        std::shared_ptr<const dnn::ActivationSynthesizer> synth =
            grid.synthesizer(n);
        sim::WorkloadSource source = grid.source(*synth);
        const std::string price = "price." + engine->kind();

        sim::NetworkResult result;
        result.networkName = network.name;
        result.engineName = engine->name();
        for (size_t i = 0; i < network.layers.size(); i++) {
            const dnn::LayerSpec &layer = network.layers[i];
            if (!layer.priced())
                continue;
            const int idx = static_cast<int>(i);
            std::shared_ptr<const sim::LayerWorkload> workload =
                grid.layer(n, source, idx, setup.engines[e],
                           engine->inputStream());
            counters.units += static_cast<int64_t>(
                sim::planSample(
                    sim::LayerTiling(layer, options.accel).numPallets(),
                    options.sample)
                    .indices.size());
            Span span(price);
            result.layers.push_back(engine->simulateLayer(
                layer, *workload, options.accel, options.sample,
                util::InnerExecutor()));
        }
        {
            Span span("memory");
            sim::applyMemoryModel(network, options.accel, result);
        }
        counters.memoryLayers += static_cast<int64_t>(result.layers.size());
        results[n * setup.engines.size() + e] = std::move(result);
    });
    return results;
}

/** runServingSweep, with the curves built on warm workloads. */
std::vector<sim::ServingReport>
tracedServing(const Setup &setup, const ServingRun &run,
              Counters &counters, TraceStats &stats)
{
    const sim::ServingSweepOptions &options = run.options;
    const int max_batch = options.serving.policy.maxBatch;
    std::vector<sim::BatchCostCurve> curves(setup.networks.size() *
                                            setup.engines.size());
    {
        TracedGrid grid(setup, options.accel, options.activations,
                        options.seed, counters);
        forEachCell(setup, stats, [&](size_t n, size_t e) {
            const dnn::Network &network = setup.networks[n];
            std::unique_ptr<sim::Engine> engine =
                setup.registry.create(setup.engines[e]);
            std::shared_ptr<const dnn::ActivationSynthesizer> synth =
                grid.synthesizer(n);
            sim::WorkloadSource source = grid.source(*synth);
            for (int b = 0; b < max_batch; b++)
                for (size_t i = 0; i < network.layers.size(); i++)
                    if (network.layers[i].priced())
                        grid.layer(n, source.withImage(b),
                                   static_cast<int>(i), setup.engines[e],
                                   engine->inputStream());
            Span span("curve");
            curves[n * setup.engines.size() + e] =
                sim::buildBatchCostCurve(network, *engine, source,
                                         options.accel, options.sample,
                                         util::InnerExecutor(),
                                         max_batch);
            counters.curveImages += max_batch;
        });
    }

    std::vector<sim::ServingReport> reports;
    for (const auto &curve : curves) {
        for (double rate : options.offeredPerSecond) {
            sim::ServingConfig config = options.serving;
            config.arrival.meanGapCycles = sim::kCyclesPerSecond / rate;
            {
                Span span(run.fleetSpan);
                reports.push_back(sim::simulateServing(curve, config));
            }
            const sim::ServingReport &report = reports.back();
            counters.requests += config.requests;
            counters.completed += report.completed;
            counters.retries += report.retries;
            counters.shed += report.shedRequests;
        }
    }
    return reports;
}

} // namespace

const std::vector<std::string> &
pricedKinds()
{
    static const std::vector<std::string> kinds = {
        "dadn",    "stripes",         "pragmatic", "pragmatic-col",
        "laconic", "dynamic_stripes"};
    return kinds;
}

Setup
makeSetup(const std::string &workload, uint64_t seed, int threads,
          bool smoke)
{
    Setup setup;
    setup.threads = threads;
    models::registerBuiltinEngines(setup.registry);
    auto pick = [&](std::vector<std::string> names,
                    dnn::LayerSelect select) {
        return networksByName(smoke ? std::vector<std::string>{"tiny"}
                                    : names,
                              select);
    };
    const std::vector<std::string> all = {"AlexNet", "NiN",  "GoogLeNet",
                                          "VGG_M",   "VGG_S", "VGG_19"};

    sim::SweepOptions &sweep = setup.sweep;
    sweep.threads = threads;
    sweep.seed = seed;
    sweep.sample.maxUnits = smoke ? 4 : 64;
    if (workload == "paper_conv") {
        setup.networks = pick(all, dnn::LayerSelect::Conv);
        setup.engines = models::paperEngineGrid();
        sweep.sample.maxUnits = 0; // Exhaustive, as --full.
    } else if (workload == "weights_fc") {
        setup.networks = pick(all, dnn::LayerSelect::All);
        setup.engines = {sim::parseEngineSpec("laconic"),
                         sim::parseEngineSpec("dynamic_stripes")};
        sweep.accel.memory = sim::parseMemoryPreset("dadn");
    } else if (workload == "propagated") {
        setup.networks = pick({"VGG_19"}, dnn::LayerSelect::All);
        setup.engines = models::paperEngineGrid();
        sweep.activations = sim::ActivationMode::Propagated;
    } else if (workload == "serve_fleet") {
        setup.networks = pick({"AlexNet", "NiN"}, dnn::LayerSelect::Conv);
        setup.engines = models::paperEngineGrid();
        sim::ServingSweepOptions ideal;
        ideal.threads = threads;
        ideal.seed = seed;
        ideal.sample.maxUnits = sweep.sample.maxUnits;
        // Offered loads around one instance's capacity on these
        // networks (~700-1500 images/s), so queues both drain and
        // build up.
        ideal.offeredPerSecond = smoke ? std::vector<double>{1e3, 1e5}
                                       : std::vector<double>{500, 1000,
                                                             1500};
        ideal.serving.requests = smoke ? 256 : 100000;
        ideal.serving.policy.maxBatch = 8;
        ideal.serving.policy.timeoutCycles = 1000000;
        ideal.serving.arrival.seed = seed;
        sim::ServingSweepOptions faulted = ideal;
        faulted.serving.faults.mtbfCycles = smoke ? 200000 : 50000000;
        faulted.serving.faults.mttrCycles = smoke ? 20000 : 2000000;
        faulted.serving.faults.seed = seed;
        faulted.serving.queueCap = 64;
        faulted.serving.retry.maxRetries = 3;
        faulted.serving.retry.backoffBaseCycles = 1000;
        faulted.serving.degradeWatermark = 32;
        setup.serving = {{"fleet.ideal", ideal},
                         {"fleet.degraded", faulted}};
    } else {
        util::fatal("prabench: unknown workload '" + workload + "'");
    }
    // Fail on bad engine knobs before anything runs, as the CLIs do.
    for (const auto &sel : setup.engines)
        setup.registry.create(sel);
    return setup;
}

RunOutputs
runUntimed(const Setup &setup)
{
    RunOutputs outputs;
    if (setup.serving.empty()) {
        outputs.cells = sim::runSweep(setup.networks, setup.engines,
                                      setup.registry, setup.sweep);
        return outputs;
    }
    for (const auto &run : setup.serving) {
        std::vector<sim::ServingReport> reports = sim::runServingSweep(
            setup.networks, setup.engines, setup.registry, run.options);
        outputs.reports.insert(outputs.reports.end(), reports.begin(),
                               reports.end());
    }
    return outputs;
}

RunOutputs
runTraced(const Setup &setup, Counters &counters, TraceStats &stats)
{
    RunOutputs outputs;
    if (setup.serving.empty()) {
        outputs.cells = tracedSweep(setup, counters, stats);
        return outputs;
    }
    for (const auto &run : setup.serving) {
        std::vector<sim::ServingReport> reports =
            tracedServing(setup, run, counters, stats);
        outputs.reports.insert(outputs.reports.end(), reports.begin(),
                               reports.end());
    }
    return outputs;
}

} // namespace prabench
