/**
 * @file
 * Pragmatic (engine kinds "pragmatic" and "pragmatic-col").
 *
 * "pragmatic" is the pallet-synchronized design of Sections V-A4/V-B
 * (tile.cc); "pragmatic-col" the per-column design of Section V-E
 * (column_sync.cc). Both price each brick from the workload's planes
 * (brick_cost.h). Knobs:
 *   bits=L      first-stage shifter width, 0..4      (default 2)
 *   trim=0|1    Section V-F software trimming        (default 1)
 *   repr=fixed16|quant8  neuron representation       (default fixed16)
 *   nmstalls=0|1  model dispatcher/NM fetch overlap  (default 1)
 *   ssr=N       ("pragmatic-col" only) synapse set registers;
 *               0 models the infinite-register ideal (default 1)
 */

#pragma once

#include <string>

#include "sim/engine.h"
#include "sim/engine_registry.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {

/** Neuron storage representation (paper Sections VI-B vs VI-F). */
enum class Representation { Fixed16, Quant8 };

/** Neuron lane synchronization scheme (Sections V-A4 vs V-E). */
enum class SyncScheme { Pallet, PerColumn };

/** A full Pragmatic design point. */
struct PragmaticConfig
{
    int firstStageBits = 2;      ///< L (0..4); 4 == single-stage.
    SyncScheme sync = SyncScheme::Pallet;
    int ssrCount = 1;            ///< Per-column SSRs; 0 = ideal.
    bool softwareTrim = true;    ///< Section V-F precision masking.
    Representation representation = Representation::Fixed16;
    bool modelNmStalls = true;

    /** Short label, e.g. "PRA-2b" or "PRA-2b-1R". */
    std::string label() const;
};

/**
 * Simulate one layer under pallet synchronization: all 16 PIP columns
 * advance to the next synapse set together, so a set costs the
 * maximum schedule length over the pallet's bricks (at least the one
 * cycle the SB read takes), plus the NM fetch residue when
 * config.modelNmStalls. Pallets are mutually independent, so the
 * sampled pallets split into blocks across @p exec, bit-identical to
 * the serial path for any block count. Reads config.firstStageBits
 * and config.modelNmStalls; engineName is left for the engine.
 */
sim::LayerResult
simulateLayerPalletSync(const dnn::LayerSpec &layer,
                        const sim::LayerWorkload &workload,
                        const sim::AccelConfig &accel,
                        const PragmaticConfig &config,
                        const sim::SampleSpec &sample,
                        const util::InnerExecutor &exec = {});

/**
 * Simulate one layer under per-column synchronization with
 * config.ssrCount synapse set registers (0 = the infinite-register
 * ideal). Column sync carries SSR/dispatcher state across the whole
 * pallet stream, so it does not block-split. Reads
 * config.firstStageBits, config.ssrCount and config.modelNmStalls;
 * engineName is left for the engine.
 */
sim::LayerResult
simulateLayerColumnSync(const dnn::LayerSpec &layer,
                        const sim::LayerWorkload &workload,
                        const sim::AccelConfig &accel,
                        const PragmaticConfig &config,
                        const sim::SampleSpec &sample);

/** Pragmatic (either sync scheme) behind the Engine interface. */
class PragmaticEngine : public sim::Engine
{
  public:
    /** @p sync selects which registry kind the knobs configure. */
    PragmaticEngine(SyncScheme sync, const sim::EngineKnobs &knobs);

    std::string kind() const override;
    std::string name() const override { return config_.label(); }
    sim::InputStream inputStream() const override;

    /**
     * Consumes the shared brick planes and (for pallet sync, whose
     * pallets are independent) splits the layer across @p exec.
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

  private:
    PragmaticConfig config_;
};

} // namespace models
} // namespace pra

