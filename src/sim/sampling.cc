#include "sim/sampling.h"

#include <string>

#include "util/args.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace sim {

SamplePlan
planSample(int64_t total, const SampleSpec &spec)
{
    PRA_CHECK(total >= 0, "planSample: negative total");
    SamplePlan plan;
    if (total == 0)
        return plan;
    if (!spec.enabled() || total <= spec.maxUnits) {
        plan.indices.reserve(total);
        for (int64_t i = 0; i < total; i++)
            plan.indices.push_back(i);
        plan.scale = 1.0;
        return plan;
    }
    int64_t count = spec.maxUnits;
    plan.indices.reserve(count);
    // Evenly spaced indices: floor(k * total / count) is strictly
    // increasing because total > count.
    for (int64_t k = 0; k < count; k++)
        plan.indices.push_back(k * total / count);
    plan.scale = static_cast<double>(total) /
                 static_cast<double>(count);
    return plan;
}

SampleSpec
parseSampleSpec(const util::ArgParser &args, int64_t default_units)
{
    int64_t units = args.getInt("units", default_units);
    if (args.has("units") && units <= 0)
        util::fatal("--units must be a positive sampling cap (got " +
                    std::to_string(units) +
                    "); use --full for an exhaustive run");
    return SampleSpec{args.getBool("full") ? 0 : units};
}

} // namespace sim
} // namespace pra
