/**
 * @file
 * Reference (golden) convolution used to validate the functional
 * models of every accelerator: DaDN's bit-parallel NFU, Stripes'
 * serial-parallel units and Pragmatic's PIPs must all produce exactly
 * these output sums.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"
#include "util/thread_pool.h"

namespace pra {
namespace dnn {

/** Output partial sums of a conv layer: one int64 per (x, y, filter). */
using OutputTensor = Tensor3D<int64_t>;

/**
 * Compute the layer's output with exact 64-bit accumulation:
 * o(k,l,f) = sum over (x,y,i) of s_f(x,y,i) * n(x*?S offsets), with
 * zero padding (paper Section IV-A). No activation function is
 * applied: the accelerators compare pre-activation partial sums.
 *
 * Products add up in int32 over runs short enough that no partial
 * sum can overflow (set per filter from its largest weight magnitude),
 * and each run folds into the int64 result: exact for any int16
 * filter and uint16 input.
 *
 * @param layer   geometry (input size must match @p input).
 * @param input   the input neuron array.
 * @param filters one FilterTensor per output filter.
 * @param exec    splits the filters into contiguous blocks; each
 *                output element is computed whole by one block, so
 *                the result is byte-identical for every block count.
 */
OutputTensor referenceConvolution(const LayerSpec &layer,
                                  const NeuronTensor &input,
                                  const std::vector<FilterTensor> &filters,
                                  const util::InnerExecutor &exec = {});

/**
 * Dot product of one window position against one filter; the quantum
 * of work the inner-product units perform. Same kernel as
 * referenceConvolution().
 */
int64_t referenceWindowDot(const LayerSpec &layer,
                           const NeuronTensor &input,
                           const FilterTensor &filter,
                           int window_x, int window_y);

} // namespace dnn
} // namespace pra

