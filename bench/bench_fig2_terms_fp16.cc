/**
 * @file
 * Reproduces Figure 2: convolutional-layer computational demand
 * (terms, normalized to DaDN) for ZN, CVN, Stripes, PRA-fp16 and
 * PRA-red with the 16-bit fixed-point representation.
 *
 * Each series is one "terms" engine priced through the sweep
 * subsystem; a series' network total over the DaDN series' total is
 * its relative term count.
 */

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "models/engines.h"
#include "sim/sweep.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv, 48);
    bench::banner("Relative term counts, 16-bit fixed point",
                  "Figure 2");

    // The DaDN series first: the baseline every column divides by.
    std::vector<sim::EngineSelection> engines;
    for (const char *series :
         {"dadn", "zn", "cvn", "stripes", "pra", "pra-red"})
        engines.push_back({"terms", {{"series", series}}});

    sim::SweepOptions sweep;
    sweep.threads = opt.threads;
    sweep.sample = opt.sample;
    sweep.seed = opt.seed;
    auto results = sim::runSweep(opt.networks, engines,
                                 models::builtinEngines(), sweep);

    util::TextTable table({"network", "ZN", "CVN", "STR", "PRA-fp16",
                           "PRA-red"});
    const size_t series = engines.size() - 1; // All but the baseline.
    std::vector<double> sums(series);
    for (size_t n = 0; n < opt.networks.size(); n++) {
        double dadn = results[n * engines.size()].totalCycles();
        std::vector<std::string> row = {opt.networks[n].name};
        for (size_t e = 0; e < series; e++) {
            double rel =
                results[n * engines.size() + e + 1].totalCycles() / dadn;
            sums[e] += rel;
            row.push_back(util::formatPercent(rel));
        }
        table.addRow(row);
    }
    double n = static_cast<double>(opt.networks.size());
    std::vector<std::string> average = {"average"};
    for (double sum : sums)
        average.push_back(util::formatPercent(sum / n));
    table.addRow(average);
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper averages: ZN 39%%, CVN 63%%, STR 53%%, "
                "PRA-fp16 10%%, PRA-red 8%% (lower is better).\n");
    return 0;
}
