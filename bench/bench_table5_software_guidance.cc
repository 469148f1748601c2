/**
 * @file
 * Reproduces Table V: the share of PRA-2b-1R's speedup contributed by
 * software-provided per-layer precisions (Section V-F trimming),
 * measured as speedup(trimmed) / speedup(raw) - 1.
 */

#include <cstdio>

#include "bench/common.h"
#include "models/engines.h"
#include "sim/layer_result.h"
#include "sim/sweep.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv, 48);
    bench::banner("Performance benefit of software guidance",
                  "Table V");

    // DaDN, then PRA-2b-1R with and without the trimming guidance.
    const std::vector<sim::EngineSelection> engines = {
        {"dadn", {}},
        {"pragmatic-col", {{"bits", "2"}, {"ssr", "1"}}},
        {"pragmatic-col", {{"bits", "2"}, {"ssr", "1"}, {"trim", "0"}}}};
    sim::SweepOptions sweep;
    sweep.threads = opt.threads;
    sweep.sample = opt.sample;
    sweep.seed = opt.seed;
    auto results = sim::runSweep(opt.networks, engines,
                                 models::builtinEngines(), sweep);

    util::TextTable table({"network", "with trim", "without", "benefit",
                           "paper"});
    double sum = 0.0;
    for (size_t n = 0; n < opt.networks.size(); n++) {
        const dnn::Network &net = opt.networks[n];
        const sim::NetworkResult *row = &results[n * engines.size()];
        double with = row[1].speedupOver(row[0]);
        double without = row[2].speedupOver(row[0]);
        double benefit = with / without - 1.0;
        sum += benefit;
        table.addRow({net.name, util::formatDouble(with),
                      util::formatDouble(without),
                      util::formatPercent(benefit, 0),
                      util::formatPercent(net.targets.softwareBenefit,
                                          0)});
    }
    table.addRow({"average", "", "",
                  util::formatPercent(sum / opt.networks.size(), 0),
                  "19%"});
    std::printf("%s\n", table.render().c_str());
    std::printf("PRA outperforms DaDN and Stripes even without the "
                "guidance;\nthe guidance adds the benefit above "
                "(paper: 19%% average).\n");
    return 0;
}
