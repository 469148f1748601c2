#include "dnn/reference.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace dnn {

namespace {

constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();

/** The re-centring offset: u - kInputOffset fits int16 for any u. */
constexpr int32_t kInputOffset = 32768;

/**
 * The longest run of re-centred products w x (u - 32768) whose int32
 * sum cannot overflow for @p filter: each product is at most
 * max|w| x 32768 <= 2^30 in magnitude, so the run is at least one.
 */
int
exactRunLength(const FilterTensor &filter)
{
    int max_abs_weight = 0;
    for (int16_t w : filter.flat())
        max_abs_weight =
            std::max(max_abs_weight, std::abs(static_cast<int>(w)));
    const int64_t bound =
        static_cast<int64_t>(max_abs_weight) * kInputOffset;
    return static_cast<int>(bound == 0 ? kInt32Max : kInt32Max / bound);
}

/**
 * The dot product of one window against one filter. Each in-range
 * filter row covers consecutive x positions, and the tensors are
 * channel-major, so the row is one contiguous span in both operands:
 * out-of-range coordinates contribute zero (padding), exactly like
 * atPadded().
 *
 * Each input code u is re-centred to the int16 s = u - 32768 (bit
 * pattern u ^ 0x8000), so w x u = w x s + 32768 x w. The int16
 * products w x s add up in int32 over runs of at most @p run
 * elements (see exactRunLength), next to the run's weight sum, and
 * each run folds into the int64 result as sum(w x s) + 32768 x
 * sum(w). No partial sum can overflow, so the result is exact, and
 * the int16 x int16 products compile to packed multiply-adds.
 */
int64_t
windowDot(const LayerSpec &layer, const NeuronTensor &input,
          const FilterTensor &filter, int window_x, int window_y,
          int run)
{
    const uint16_t *in = input.flat().data();
    const int16_t *fl = filter.flat().data();
    const int channels = layer.inputChannels;
    const int base_x = window_x * layer.stride - layer.pad;
    const int base_y = window_y * layer.stride - layer.pad;
    const int x_lo = std::max(0, -base_x);
    const int x_hi = std::min(layer.filterX, layer.inputX - base_x);
    if (x_lo >= x_hi)
        return 0;
    const int len = (x_hi - x_lo) * channels;
    int64_t acc = 0;
    for (int fy = 0; fy < layer.filterY; fy++) {
        const int y = base_y + fy;
        if (y < 0 || y >= layer.inputY)
            continue;
        const uint16_t *in_row =
            in + (static_cast<size_t>(y) * layer.inputX + base_x + x_lo) *
                     channels;
        const int16_t *fl_row =
            fl + (static_cast<size_t>(fy) * layer.filterX + x_lo) *
                     channels;
        for (int start = 0; start < len;) {
            const int end = start + std::min(run, len - start);
            int32_t products = 0;
            int32_t weights = 0;
            for (int i = start; i < end; i++) {
                const auto centred =
                    static_cast<int16_t>(in_row[i] ^ 0x8000u);
                products += static_cast<int32_t>(fl_row[i]) * centred;
                weights += fl_row[i];
            }
            acc += products + static_cast<int64_t>(weights) * kInputOffset;
            start = end;
        }
    }
    return acc;
}

} // namespace

int64_t
referenceWindowDot(const LayerSpec &layer, const NeuronTensor &input,
                   const FilterTensor &filter, int window_x, int window_y)
{
    return windowDot(layer, input, filter, window_x, window_y,
                     exactRunLength(filter));
}

OutputTensor
referenceConvolution(const LayerSpec &layer, const NeuronTensor &input,
                     const std::vector<FilterTensor> &filters,
                     const util::InnerExecutor &exec)
{
    PRA_CHECK(layer.valid(), "referenceConvolution: bad layer");
    PRA_CHECK(input.sizeX() == layer.inputX &&
                             input.sizeY() == layer.inputY &&
                             input.sizeI() == layer.inputChannels,
                         "referenceConvolution: input shape mismatch");
    PRA_CHECK(static_cast<int>(filters.size()) ==
                             layer.numFilters,
                         "referenceConvolution: filter count mismatch");
    for (const FilterTensor &filter : filters)
        PRA_CHECK(filter.sizeX() == layer.filterX &&
                                 filter.sizeY() == layer.filterY &&
                                 filter.sizeI() == layer.inputChannels,
                             "referenceConvolution: filter shape mismatch");

    OutputTensor output(layer.outX(), layer.outY(), layer.numFilters);
    int64_t *out = output.flat().data();
    const int out_x = layer.outX();
    const int out_y = layer.outY();
    const int num_filters = layer.numFilters;
    // Each block owns a contiguous filter range and computes its
    // outputs whole, so every split writes the same bytes.
    const int blocks = exec.blockCount(num_filters);
    exec.forEachBlock(blocks, [&](int b) {
        auto [lo, hi] =
            util::InnerExecutor::blockRange(num_filters, blocks, b);
        for (int64_t f = lo; f < hi; f++) {
            const FilterTensor &filter = filters[f];
            const int run = exactRunLength(filter);
            for (int wy = 0; wy < out_y; wy++)
                for (int wx = 0; wx < out_x; wx++)
                    out[(static_cast<size_t>(wy) * out_x + wx) *
                            num_filters +
                        f] = windowDot(layer, input, filter, wx, wy, run);
        }
    });
    return output;
}

} // namespace dnn
} // namespace pra
