/**
 * @file
 * The grid driver: every (network x engine) cell of a grid priced on
 * a worker pool, with one shared workload cache.
 *
 * runGrid is the one cell scheduler. It gives each cell its own
 * engine and a WorkloadSource backed by the grid's WorkloadCache, so
 * each distinct (network, representation, trim, seed) workload is
 * built exactly once no matter how many engines consume it. runSweep
 * prices a cell as Engine::runBatch plus the memory model; the
 * serving sweep (sim/serving/serving_sim.h) prices it as a batch
 * cost curve.
 *
 * Scheduling is two-level: grid cells fan out across the pool, and
 * when the grid alone cannot occupy every worker (fewer cells than
 * threads) each cell additionally splits large layers into pallet
 * blocks on the same pool (see InnerExecutor).
 *
 * Determinism: streams depend only on (network, seed), results are
 * stored by grid position (network-major, engine-minor), and block
 * splits combine exact integer partials in block order, so the
 * output is bit-identical for any thread count and equal to pricing
 * each cell serially on uncached workloads.
 *
 * When options.accel.memory is enabled (--memory=<preset>), every
 * cell's compute result is composed with the memory-hierarchy model
 * (sim/memory/memory_model.h) after its engine finishes: pure
 * per-layer arithmetic, so the determinism guarantees above are
 * unchanged and the compute columns are byte-identical to a
 * memory-off run of the same grid.
 */

#pragma once

#include <functional>
#include <ostream>
#include <vector>

#include "dnn/network.h"
#include "sim/accel_config.h"
#include "sim/engine_registry.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

/** Options every grid driver shares. */
struct GridOptions
{
    int threads = 1;          ///< Worker threads (<= 1: sequential).
    AccelConfig accel;        ///< Machine configuration.
    SampleSpec sample{64};    ///< Per-layer sampling cap.
    uint64_t seed = 0x5eed;   ///< Activation-synthesis seed.
    /**
     * Synthetic (default: calibrated independent streams, the
     * committed-golden workload) or Propagated (streams from one
     * reference forward pass; networks must be full pipelines —
     * LayerSelect::All with pools). See sim/workload_cache.h.
     */
    ActivationMode activations = ActivationMode::Synthetic;
};

/**
 * Prices grid cell @p cell (grid-order index: network-major,
 * engine-minor) of @p network on a fresh @p engine, drawing workloads
 * from @p source and splitting layers across @p exec.
 */
using CellPricer = std::function<void(
    size_t cell, const dnn::Network &network, const Engine &engine,
    const WorkloadSource &source, const util::InnerExecutor &exec)>;

/**
 * Price cells [first, last) of the (networks x engines) grid with
 * @p price: serially on this thread when options.threads <= 1, else
 * on a pool of options.threads workers, layers splitting only when
 * the cells cannot occupy every worker. Engine selections are
 * validated (instantiated once) before any cell runs, so bad knobs
 * fail fast. @p price must store its result by cell index.
 */
void runGrid(const std::vector<dnn::Network> &networks,
             const std::vector<EngineSelection> &engines,
             const EngineRegistry &registry, const GridOptions &options,
             size_t first, size_t last, const CellPricer &price);

/** Options of a sweep over (networks x engines). */
struct SweepOptions : GridOptions
{
    /**
     * Images per request: every cell runs Engine::runBatch over this
     * many per-image streams and reports per-batch totals (plus the
     * batch / cycles_per_image CSV columns). 1 — the default — is
     * byte-identical to the historical single-image sweep.
     */
    int batch = 1;
    /**
     * Grid shard [shardIndex / shardCount): the sweep prices only
     * its contiguous share of the grid-order cell list, cells
     * [cells * i / N, cells * (i+1) / N), and returns only those
     * results — so concatenating the CSV bodies of shards 0..N-1
     * reproduces the unsharded output byte for byte. The default
     * 0/1 covers the whole grid.
     */
    int shardIndex = 0;
    int shardCount = 1;
};

/**
 * Run the (networks x engines) grid — or, when options selects a
 * shard, its contiguous slice. Returns one NetworkResult per covered
 * cell in grid order: all engines of networks[0], then networks[1],
 * ... Cells are priced by runGrid.
 */
std::vector<NetworkResult>
runSweep(const std::vector<dnn::Network> &networks,
         const std::vector<EngineSelection> &engines,
         const EngineRegistry &registry, const SweepOptions &options);

/**
 * Find the cell for (network, engine-label) in sweep results;
 * fatal() when absent.
 */
const NetworkResult &findResult(const std::vector<NetworkResult> &results,
                                const std::string &network,
                                const std::string &engine);

/**
 * Emit sweep results as CSV in grid order. Per-network totals by
 * default; @p per_layer adds one row per layer instead. Formatting
 * uses round-trip precision, so two result sets are bit-identical iff
 * their CSV dumps are byte-identical. Results carrying memory
 * modeling grow the on_chip_bytes / off_chip_bytes /
 * mem_stall_cycles / system_cycles / bw_bound columns; compute-only
 * results keep the historical (golden-pinned) column set.
 */
void writeSweepCsv(std::ostream &out,
                   const std::vector<NetworkResult> &results,
                   bool per_layer = false);

} // namespace sim
} // namespace pra

