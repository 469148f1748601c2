/**
 * @file
 * Per-operation correctness checks on the simulator's outputs.
 *
 * An operation is one priced (network, engine) sweep cell or one
 * serving report row. Each is rendered through the simulator's own
 * CSV writers — the bytes a user of pra_sweep --per-layer or
 * pra_serve sees — and the checks read those bytes back, so a
 * broken writer fails them as surely as a broken model. Every check
 * charges a failure to the operation it found wrong; failed ÷
 * attempted is the benchmark's failed fraction.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/layer_result.h"
#include "sim/serving/serving_sim.h"

namespace prabench {

/** The outputs one run of a workload produced. */
struct RunOutputs
{
    std::vector<pra::sim::NetworkResult> cells;
    std::vector<pra::sim::ServingReport> reports;
};

/** A parsed CSV document. */
struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /** Column index of @p name, or -1 when absent. */
    int column(const std::string &name) const;
};

/** One operation: its label, its CSV rendering, and that parsed. */
struct Operation
{
    std::string label;   ///< "network/engine[/rate/loop]".
    std::string network;
    std::string engine;
    bool serving = false;
    std::string csv;
    CsvTable table;
};

/** Render and parse every operation of @p outputs, in output order. */
std::vector<Operation> toOperations(const RunOutputs &outputs);

/** 64-bit FNV-1a digest. */
uint64_t fnv1a(const std::string &text);

/** Failure reasons per operation; an empty reason means it passed. */
struct CheckReport
{
    std::vector<std::string> reasons;

    explicit CheckReport(size_t operations) : reasons(operations) {}

    /** Record @p why against operation @p op (first reason kept). */
    void fail(size_t op, const std::string &why);

    int64_t failed() const;
};

/**
 * Run every per-operation check:
 *  - each layer row: system_cycles == cycles + mem_stall_cycles
 *    (memory-modelled rows) and cycles positive and finite;
 *  - per network: pallet-sync Pragmatic cycles do not increase over
 *    PRA-0b ... PRA-4b;
 *  - each serving row: completed + shed + permanent failures ==
 *    requests, and p50 <= p95 <= p99.
 */
CheckReport checkOperations(const std::vector<Operation> &ops);

/**
 * Charge a failure to every operation whose bytes differ from the
 * same operation of @p reference (a determinism / equivalence
 * check); a different operation count fails them all.
 */
void checkSameOutputs(const std::vector<Operation> &reference,
                      const std::vector<Operation> &ops,
                      const std::string &what, CheckReport &report);

/**
 * Pass deliberately broken copies of @p ops (which must hold a
 * memory-modelled paper-grid sweep and degraded serving rows)
 * through every check and print whether each break is counted.
 * Returns true when the clean outputs pass and every break fails.
 */
bool selfTest(const std::vector<Operation> &ops);

} // namespace prabench
