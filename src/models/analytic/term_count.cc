#include "models/analytic/term_count.h"

#include "util/check.h"

namespace pra {
namespace models {

namespace {

/** Per-window accumulation of value statistics. */
struct WindowStats
{
    int64_t elements = 0;
    int64_t nonZero = 0;
    int64_t popRaw = 0;
    int64_t popTrimmed = 0;
};

/**
 * Accumulate the stats of the window at output position (wx, wy):
 * each of its Fx*Fy*I input neurons is used once per filter. Whole
 * bricks are summed from the precomputed planes (padding bricks
 * count as elements only).
 */
WindowStats
windowStats(const dnn::LayerSpec &layer, const sim::BrickPlanes &raw,
            const sim::BrickPlanes &trimmed, int wx, int wy)
{
    WindowStats stats;
    int base_x = wx * layer.stride - layer.pad;
    int base_y = wy * layer.stride - layer.pad;
    for (int fy = 0; fy < layer.filterY; fy++) {
        int y = base_y + fy;
        for (int fx = 0; fx < layer.filterX; fx++) {
            int x = base_x + fx;
            stats.elements += layer.inputChannels;
            if (x < 0 || x >= layer.inputX || y < 0 ||
                y >= layer.inputY)
                continue;
            size_t idx = raw.index(x, y, 0);
            for (int b = 0; b < raw.bricksPerColumn; b++) {
                stats.nonZero += raw.nonZero[idx + b];
                stats.popRaw += raw.pop[idx + b];
                stats.popTrimmed += trimmed.pop[idx + b];
            }
        }
    }
    return stats;
}

/** Fold one window's stats into the layer counts. */
void
addWindowCounts(LayerTermCounts &counts, const dnn::LayerSpec &layer,
                const WindowStats &stats, bool is_first_layer)
{
    double filters = static_cast<double>(layer.numFilters);
    counts.dadn += 16.0 * stats.elements * filters;
    counts.zn += 16.0 * stats.nonZero * filters;
    counts.cvn += 16.0 *
                  (is_first_layer ? stats.elements : stats.nonZero) *
                  filters;
    counts.stripes += static_cast<double>(layer.profiledPrecision) *
                      stats.elements * filters;
    counts.praRaw += static_cast<double>(stats.popRaw) * filters;
    counts.praTrimmed += static_cast<double>(stats.popTrimmed) *
                         filters;
}

void
scaleCounts(LayerTermCounts &counts, double scale)
{
    counts.dadn *= scale;
    counts.zn *= scale;
    counts.cvn *= scale;
    counts.stripes *= scale;
    counts.praRaw *= scale;
    counts.praTrimmed *= scale;
}

} // namespace

LayerTermCounts
countLayerTerms16(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &raw,
                  const sim::LayerWorkload &trimmed,
                  bool is_first_layer, const sim::SampleSpec &sample)
{
    sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
    PRA_CHECK(!plan.indices.empty(),
                         "countLayerTerms16: no windows");

    const sim::BrickPlanes &raw_planes = raw.brickPlanes();
    const sim::BrickPlanes &trimmed_planes = trimmed.brickPlanes();
    LayerTermCounts counts;
    for (int64_t w : plan.indices) {
        int wx = static_cast<int>(w % layer.outX());
        int wy = static_cast<int>(w / layer.outX());
        WindowStats stats =
            windowStats(layer, raw_planes, trimmed_planes, wx, wy);
        addWindowCounts(counts, layer, stats, is_first_layer);
    }
    scaleCounts(counts, plan.scale);
    return counts;
}

NetworkTerms8
countNetworkTerms8(const dnn::Network &network,
                   const dnn::ActivationSynthesizer &synth,
                   const sim::SampleSpec &sample)
{
    double baseline = 0.0;
    double zero_skip = 0.0;
    double pra = 0.0;
    for (size_t i = 0; i < network.layers.size(); i++) {
        const auto &layer = network.layers[i];
        if (!layer.priced())
            continue; // Structural pools contribute no terms.
        sim::LayerWorkload codes(
            synth.synthesizeQuant8(static_cast<int>(i)));
        const sim::BrickPlanes &planes = codes.brickPlanes();
        sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
        double filters = static_cast<double>(layer.numFilters);
        for (int64_t w : plan.indices) {
            int wx = static_cast<int>(w % layer.outX());
            int wy = static_cast<int>(w / layer.outX());
            // No trimmed stream: popTrimmed is never read here.
            WindowStats stats = windowStats(layer, planes, planes, wx, wy);
            baseline += plan.scale * 8.0 * stats.elements * filters;
            zero_skip += plan.scale * 8.0 * stats.nonZero * filters;
            pra += plan.scale * static_cast<double>(stats.popRaw) *
                   filters;
        }
    }
    PRA_CHECK(baseline > 0.0,
                         "countNetworkTerms8: zero baseline");
    NetworkTerms8 rel;
    rel.zeroSkip = zero_skip / baseline;
    rel.pra = pra / baseline;
    return rel;
}

} // namespace models
} // namespace pra
