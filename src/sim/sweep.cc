#include "sim/sweep.h"

#include <cstdio>
#include <memory>

#include "dnn/activation_synth.h"
#include "sim/memory/memory_model.h"
#include "sim/workload_cache.h"
#include "util/csv.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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

/**
 * Blocks one cell may split a layer into: only when the grid alone
 * cannot keep every worker busy, handing each cell its share of the
 * pool.
 */
int
resolveInnerTasks(int threads, size_t cells)
{
    if (cells >= static_cast<size_t>(threads))
        return 1;
    return static_cast<int>((threads + cells - 1) / cells);
}

} // namespace

void
runGrid(const std::vector<dnn::Network> &networks,
        const std::vector<EngineSelection> &engines,
        const EngineRegistry &registry, const GridOptions &options,
        size_t first, size_t last, const CellPricer &price)
{
    PRA_CHECK(!networks.empty() && !engines.empty(),
              "runGrid: empty grid");
    PRA_CHECK(first <= last && last <= networks.size() * engines.size(),
              "runGrid: cell range out of bounds");
    // Validate every selection up front so knob errors surface before
    // any worker starts.
    for (const auto &sel : engines)
        registry.create(sel);
    if (first == last)
        return;

    WorkloadCache cache(options.threads);
    auto runCell = [&](size_t cell, const util::InnerExecutor &exec) {
        // Each cell builds its own engine and draws its streams from
        // the grid-wide cache. Streams depend only on (network,
        // seed), so any schedule yields identical results.
        const dnn::Network &network = networks[cell / engines.size()];
        std::unique_ptr<Engine> engine =
            registry.create(engines[cell % engines.size()]);
        std::shared_ptr<const dnn::ActivationSynthesizer> synth =
            cache.synthesizer(network, options.seed);
        WorkloadSource source(*synth, cache, options.activations);
        price(cell, network, *engine, source, exec);
    };

    if (options.threads <= 1) {
        for (size_t cell = first; cell < last; cell++)
            runCell(cell, util::InnerExecutor());
        return;
    }
    util::ThreadPool pool(options.threads);
    util::InnerExecutor exec(&pool,
                             resolveInnerTasks(options.threads,
                                               last - first));
    for (size_t cell = first; cell < last; cell++)
        pool.submit([&runCell, &exec, cell] { runCell(cell, exec); });
    pool.wait();
}

std::vector<NetworkResult>
runSweep(const std::vector<dnn::Network> &networks,
         const std::vector<EngineSelection> &engines,
         const EngineRegistry &registry, const SweepOptions &options)
{
    PRA_CHECK(options.batch >= 1, "runSweep: batch must be >= 1");
    PRA_CHECK(options.shardCount >= 1 && options.shardIndex >= 0 &&
                  options.shardIndex < options.shardCount,
              "runSweep: shard index out of range");
    const size_t cells = networks.size() * engines.size();
    // The shard's contiguous slice of the grid-order cell list; the
    // balanced-split endpoints make shards 0..N-1 partition the grid
    // exactly, so concatenated shard outputs equal the unsharded run.
    // More shards than cells leaves some shards empty; header-only
    // CSV output is exactly what concatenation expects from them.
    const size_t first = cells * static_cast<size_t>(options.shardIndex) /
                         static_cast<size_t>(options.shardCount);
    const size_t last =
        cells * (static_cast<size_t>(options.shardIndex) + 1) /
        static_cast<size_t>(options.shardCount);
    std::vector<NetworkResult> results(last - first);
    runGrid(networks, engines, registry, options, first, last,
            [&](size_t cell, const dnn::Network &network,
                const Engine &engine, const WorkloadSource &source,
                const util::InnerExecutor &exec) {
                NetworkResult &result = results[cell - first];
                result = engine.runBatch(network, source, options.accel,
                                         options.sample, exec,
                                         options.batch);
                // Compose compute cycles with the memory hierarchy
                // (no-op when --memory=off): pure per-layer
                // arithmetic over the finished result.
                applyMemoryModel(network, options.accel, result);
            });
    return results;
}

const NetworkResult &
findResult(const std::vector<NetworkResult> &results,
           const std::string &network, const std::string &engine)
{
    for (const auto &result : results)
        if (result.networkName == network &&
            result.engineName == engine)
            return result;
    util::fatal("sweep: no result for (" + network + ", " + engine +
                ")");
}

void
writeSweepCsv(std::ostream &out,
              const std::vector<NetworkResult> &results, bool per_layer)
{
    // Memory columns appear only when some cell was produced with
    // memory modeling on, so the default (--memory=off) output stays
    // byte-identical to the committed goldens; the batch columns are
    // gated the same way on any cell actually being batched.
    bool memory = false;
    bool batched = false;
    for (const auto &result : results) {
        memory = memory || result.memoryModeled();
        batched = batched || result.batched();
    }

    util::CsvWriter csv(out);
    std::vector<std::string> header = {"network", "engine"};
    if (per_layer)
        header.push_back("layer");
    header.insert(header.end(),
                  {"cycles", "nm_stall_cycles", "effectual_terms",
                   "sb_read_steps"});
    if (batched)
        header.insert(header.end(), {"batch", "cycles_per_image"});
    if (memory)
        header.insert(header.end(),
                      {"on_chip_bytes", "off_chip_bytes",
                       "mem_stall_cycles", "system_cycles",
                       "bw_bound"});
    csv.writeHeader(header);
    for (const auto &result : results) {
        if (per_layer) {
            for (const auto &layer : result.layers) {
                std::vector<std::string> row = {
                    result.networkName, result.engineName,
                    layer.layerName, roundTrip(layer.cycles),
                    roundTrip(layer.nmStallCycles),
                    roundTrip(layer.effectualTerms),
                    roundTrip(layer.sbReadSteps)};
                if (batched) {
                    row.push_back(std::to_string(layer.batchImages));
                    row.push_back(roundTrip(layer.cyclesPerImage()));
                }
                if (memory) {
                    row.push_back(roundTrip(layer.onChipBytes));
                    row.push_back(roundTrip(layer.offChipBytes));
                    row.push_back(roundTrip(layer.memStallCycles));
                    row.push_back(roundTrip(layer.systemCycles()));
                    row.push_back(layer.bandwidthBound ? "1" : "0");
                }
                csv.writeRow(row);
            }
        } else {
            double terms = 0.0;
            double sb_reads = 0.0;
            int bw_bound = 0;
            for (const auto &layer : result.layers) {
                terms += layer.effectualTerms;
                sb_reads += layer.sbReadSteps;
                bw_bound += layer.bandwidthBound ? 1 : 0;
            }
            std::vector<std::string> row = {
                result.networkName, result.engineName,
                roundTrip(result.totalCycles()),
                roundTrip(result.totalStalls()), roundTrip(terms),
                roundTrip(sb_reads)};
            if (batched) {
                row.push_back(std::to_string(result.batchImages()));
                row.push_back(roundTrip(
                    result.totalCycles() /
                    static_cast<double>(result.batchImages())));
            }
            if (memory) {
                row.push_back(roundTrip(result.totalOnChipBytes()));
                row.push_back(roundTrip(result.totalOffChipBytes()));
                row.push_back(roundTrip(result.totalMemStalls()));
                row.push_back(roundTrip(result.totalSystemCycles()));
                // Network rows count their bandwidth-bound layers.
                row.push_back(std::to_string(bw_bound));
            }
            csv.writeRow(row);
        }
    }
}

} // namespace sim
} // namespace pra
