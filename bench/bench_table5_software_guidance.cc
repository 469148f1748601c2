/**
 * @file
 * Reproduces Table V: the share of PRA-2b-1R's speedup contributed by
 * software-provided per-layer precisions (Section V-F trimming),
 * measured as speedup(trimmed) / speedup(raw) - 1.
 */

#include <cstdio>

#include "bench/common.h"
#include "dnn/activation_synth.h"
#include "models/dadn/dadn.h"
#include "models/engines.h"
#include "sim/layer_result.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv, 48);
    bench::banner("Performance benefit of software guidance",
                  "Table V");

    models::DadnModel dadn;
    auto trimmed = models::builtinEngines().create(
        "pragmatic-col", {{"bits", "2"}, {"ssr", "1"}});
    auto raw = models::builtinEngines().create(
        "pragmatic-col", {{"bits", "2"}, {"ssr", "1"}, {"trim", "0"}});

    util::TextTable table({"network", "with trim", "without", "benefit",
                           "paper"});
    double sum = 0.0;
    for (const auto &net : opt.networks) {
        double base = dadn.run(net).totalCycles();
        dnn::ActivationSynthesizer synth(net, opt.seed);
        auto speedup = [&](const sim::Engine &engine) {
            return base / engine
                              .runNetwork(net, synth, sim::AccelConfig{},
                                          opt.sample)
                              .totalCycles();
        };
        double with = speedup(*trimmed);
        double without = speedup(*raw);
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
