/**
 * @file
 * prabench: time one workload of the simulator benchmark.
 *
 *   prabench --workload=NAME --seed=N --seconds=S --trace=0|1
 *                   [--out-dir=DIR] [--commit=SHA] [--source=DIGEST]
 *                   [--smoke]
 *   prabench --self-test
 *
 * Builds the workload's inputs from the seed, then runs it untimed
 * (no spans) through the CLI entry points, at least kMinRuns times and
 * then until the next run would overshoot --seconds, checking every
 * run's outputs.
 * With --trace=0 it prints the end-to-end metrics (medians over the
 * runs); with --trace=1 it then makes one traced run and prints the
 * per-layer metrics instead. The last line of stdout is the result
 * as one JSON object. prabench/run.py builds this program and is the
 * benchmark's entry point; see prabench/README.md.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "trace.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace prabench;
using namespace pra;

namespace {

/**
 * Runs a measurement takes at least: the longest workloads spend most
 * of a run in one serial phase whose time swings by a fifth with the
 * host's load, and a median of two (their mean) narrows that.
 */
constexpr size_t kMinRuns = 2;

/**
 * Times one set-up now and then every kSetupGap, from its own thread,
 * while a run is in flight. A set-up takes microseconds, and its time
 * swings by up to a factor of two as the host's load comes and goes
 * for seconds at a time; sampled back to back it reads one such
 * stretch, sampled sparsely across the run it pools the same stretch
 * of host time wall_s does. It costs about a thousandth of one core.
 */
class SetupSampler
{
  public:
    static constexpr std::chrono::milliseconds kSetupGap{20};

    SetupSampler(std::function<void()> setup, std::vector<double> &samples)
        : setup_(std::move(setup)), samples_(samples),
          thread_([this] { loop(); })
    {
    }

    ~SetupSampler()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        thread_.join();
    }

    SetupSampler(const SetupSampler &) = delete;
    SetupSampler &operator=(const SetupSampler &) = delete;

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        do {
            lock.unlock();
            const int64_t t0 = nowNs();
            setup_();
            samples_.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
            lock.lock();
        } while (!wake_.wait_for(lock, kSetupGap, [this] { return stop_; }));
    }

    std::function<void()> setup_;
    std::vector<double> &samples_; ///< Read only after the join.
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * The paper's numbers behind the fidelity metrics. Each metric is
 * |geomean over networks of cycles(over) / cycles(engine) - paper|
 * on the paper_conv grid.
 */
struct PaperTarget
{
    const char *metric;
    const char *engine;
    const char *over;
    double paper;
    const char *source;
};

constexpr PaperTarget kPaperTargets[] = {
    {"fig9_stripes_gap", "Stripes", "DaDN", 1.85,
     "Fig. 9: Stripes 1.85x over DaDN"},
    {"fig9_pra4b_gap", "PRA-4b", "DaDN", 2.59,
     "Fig. 9: PRA-4b 2.59x over DaDN"},
    {"fig9_pra0b_gap", "PRA-0b", "Stripes", 1.20,
     "Fig. 9: PRA-0b ~20% over Stripes"},
    {"fig10_1r_gap", "PRA-2b-1R", "DaDN", 3.1,
     "Fig. 10: PRA-2b with one SSR 3.1x over DaDN"},
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
};

double
cpuSeconds()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec +
                               usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

/**
 * Restart the kernel's resident-set high-water mark, so peakRssMb()
 * reads the peak of what ran since. Where the kernel offers no reset
 * the peak covers the whole process.
 */
void
resetPeakRss()
{
    // Hand free heap pages back first, so the mark starts from what
    // is live rather than from what earlier runs left cached.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set in MiB since start or the last reset. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Quantile @p q of @p values by linear interpolation. */
double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Check one run's outputs, tally them, and print what failed. */
void
tally(const std::vector<Operation> &ops, const CheckReport &report,
      const char *what, Result &result)
{
    result.attempted += static_cast<int64_t>(ops.size());
    result.failed += report.failed();
    int shown = 0;
    for (size_t i = 0; i < ops.size() && shown < 10; i++)
        if (!report.reasons[i].empty()) {
            std::printf("check failed (%s run) %s: %s\n", what,
                        ops[i].label.c_str(),
                        report.reasons[i].c_str());
            shown++;
        }
}

/** The fidelity metrics of a paper_conv run, printed with sources. */
void
addFidelity(const std::vector<sim::NetworkResult> &cells, Result &result)
{
    for (const auto &target : kPaperTargets) {
        std::vector<double> ratios;
        for (const auto &cell : cells)
            if (cell.engineName == target.engine)
                ratios.push_back(
                    sim::findResult(cells, cell.networkName, target.over)
                        .totalSystemCycles() /
                    cell.totalSystemCycles());
        const double measured = sim::geometricMean(ratios);
        const double gap = std::fabs(measured - target.paper);
        std::printf("fidelity %-17s %s over %s: geomean %.4fx of %zu "
                    "networks, paper %.2fx (%s), gap %.4fx\n",
                    target.metric, target.engine, target.over, measured,
                    ratios.size(), target.paper, target.source, gap);
        result.metrics.push_back({target.metric, gap, "x"});
    }
}

/** One traced run and the per-layer metrics it yields. */
void
tracedRun(const std::string &workload, uint64_t seed, int threads,
          bool smoke, const std::vector<Operation> &untimed,
          double untimed_wall, const std::string &out_dir,
          Result &result)
{
    Setup setup = makeSetup(workload, seed, threads, smoke);
    tracer().reset();
    const int main_thread = tracer().threadLog().thread;
    Counters counters;
    TraceStats stats;
    const int64_t start = nowNs();
    RunOutputs outputs = runTraced(setup, counters, stats);
    const double wall = static_cast<double>(nowNs() - start) * 1e-9;

    std::vector<Operation> ops = toOperations(outputs);
    CheckReport report = checkOperations(ops);
    checkSameOutputs(untimed, ops, "traced", report);
    tally(ops, report, "traced", result);

    std::map<std::string, double> self = tracer().selfSeconds();
    auto s = [&](const std::string &name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    double covered = 0.0;
    for (const auto &[name, seconds] : self)
        if (name != "cell")
            covered += seconds;
    double price_s = 0.0;
    for (const auto &kind : pricedKinds())
        price_s += s("price." + kind);

    double cycles = 0.0, terms = 0.0, system = 0.0, off_chip = 0.0;
    for (const auto &cell : outputs.cells) {
        cycles += cell.totalCycles();
        system += cell.totalSystemCycles();
        off_chip += cell.totalOffChipBytes();
        for (const auto &layer : cell.layers)
            terms += layer.effectualTerms;
    }
    for (const auto &r : outputs.reports) {
        cycles += static_cast<double>(r.makespanCycles);
        system += r.meanLatencyCycles * r.completed;
    }

    auto count = [](const std::atomic<int64_t> &c) {
        return static_cast<double>(c.load());
    };
    const double hits = count(counters.cacheHits);
    const double misses = count(counters.cacheMisses);
    const double fleet_s = s("fleet.ideal") + s("fleet.degraded");
    std::vector<Metric> &m = result.metrics;
    m.push_back({"activation_synth.self_s", s("activation_synth"), "s"});
    m.push_back({"activation_synth.streams", count(counters.streams),
                 "count"});
    m.push_back({"activation_synth.ns_per_neuron",
                 ratio(s("activation_synth") * 1e9,
                       count(counters.neurons)),
                 "ns"});
    m.push_back({"weight_synth.self_s", s("weight_synth"), "s"});
    m.push_back({"weight_synth.codes", count(counters.weightCodes),
                 "count"});
    m.push_back({"weight_synth.ns_per_code",
                 ratio(s("weight_synth") * 1e9,
                       count(counters.weightCodes)),
                 "ns"});
    m.push_back({"propagate.self_s", s("propagate"), "s"});
    m.push_back({"propagate.macs", count(counters.macs), "count"});
    m.push_back({"planes.self_s", s("planes"), "s"});
    m.push_back({"planes.bricks", count(counters.bricks), "count"});
    m.push_back({"planes.cycle_planes", count(counters.cyclePlanes),
                 "count"});
    m.push_back({"cache.hits", hits, "count"});
    m.push_back({"cache.misses", misses, "count"});
    m.push_back({"cache.hit_ratio", ratio(hits, hits + misses), "ratio"});
    m.push_back({"cache.wait_s", s("cache.wait"), "s"});
    for (const auto &kind : pricedKinds())
        m.push_back({"price." + kind + ".self_s", s("price." + kind),
                     "s"});
    m.push_back({"price.units", count(counters.units), "count"});
    m.push_back({"price.ns_per_unit",
                 ratio(price_s * 1e9, count(counters.units)), "ns"});
    m.push_back({"memory.self_s", s("memory"), "s"});
    m.push_back({"memory.layers", count(counters.memoryLayers), "count"});
    m.push_back({"curve.self_s", s("curve"), "s"});
    m.push_back({"curve.images", count(counters.curveImages), "count"});
    m.push_back({"fleet.ideal.self_s", s("fleet.ideal"), "s"});
    m.push_back({"fleet.degraded.self_s", s("fleet.degraded"), "s"});
    m.push_back({"fleet.requests", count(counters.requests), "count"});
    m.push_back({"fleet.ns_per_request",
                 ratio(fleet_s * 1e9, count(counters.requests)), "ns"});
    m.push_back({"fleet.retries", count(counters.retries), "count"});
    m.push_back({"fleet.shed", count(counters.shed), "count"});
    m.push_back({"fleet.goodput_ratio",
                 ratio(count(counters.completed),
                       count(counters.requests)),
                 "ratio"});
    m.push_back({"sweep.idle_frac",
                 1.0 - ratio(tracer().workerBusySeconds(start, main_thread),
                             stats.threads * stats.parallelWallS),
                 "ratio"});
    m.push_back({"model.cycles", cycles, "cycles"});
    m.push_back({"model.effectual_terms", terms, "count"});
    m.push_back({"model.system_cycles", system, "cycles"});
    m.push_back({"model.off_chip_bytes", off_chip, "bytes"});
    m.push_back({"trace.coverage", ratio(covered, wall), "ratio"});
    m.push_back({"trace.overhead_s", wall - untimed_wall, "s"});

    std::string all;
    for (const auto &op : ops)
        all += op.csv;
    std::printf("traced run: %.4f s wall on %d threads, digest %016llx\n",
                wall, stats.threads,
                static_cast<unsigned long long>(fnv1a(all)));
    if (!out_dir.empty()) {
        std::string path = out_dir + "/trace-" + workload + "-" +
                           std::to_string(seed) + ".json";
        std::ofstream out(path);
        tracer().writeChromeTrace(out);
        if (out)
            std::printf("spans written to %s\n", path.c_str());
    }
}

/** Measure one workload; see the file comment. */
Result
measure(const std::string &workload, uint64_t seed, double seconds,
        bool trace, bool smoke, int threads, const std::string &out_dir)
{
    Result result;
    const int64_t start = nowNs();
    std::vector<double> setups, walls, cpus, peaks;
    std::vector<Operation> reference;
    std::vector<sim::NetworkResult> first_cells;
    for (;;) {
        Setup setup = makeSetup(workload, seed, threads, smoke);
        resetPeakRss();
        const double cpu0 = cpuSeconds();
        const int64_t t0 = nowNs();
        RunOutputs outputs;
        {
            SetupSampler sampler(
                [&] { makeSetup(workload, seed, threads, smoke); },
                setups);
            outputs = runUntimed(setup);
        }
        walls.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        cpus.push_back(cpuSeconds() - cpu0);
        peaks.push_back(peakRssMb());

        std::vector<Operation> ops = toOperations(outputs);
        CheckReport report = checkOperations(ops);
        if (reference.empty()) {
            reference = ops;
            first_cells = std::move(outputs.cells);
        } else {
            checkSameOutputs(reference, ops, "repeated", report);
        }
        tally(ops, report, "untimed", result);
        const double elapsed =
            static_cast<double>(nowNs() - start) * 1e-9;
        if (smoke || (walls.size() >= kMinRuns &&
                      elapsed + walls.back() > seconds))
            break;
    }
    const double wall = quantile(walls, 0.5);

    std::printf("untimed runs: %zu, setups: %zu\n", walls.size(),
                setups.size());
    auto describe = [](const char *name, const std::vector<double> &v,
                       const char *unit) {
        std::printf("%-12s median %.6f %s  p25 %.6f  p75 %.6f  max "
                    "%.6f  (n=%zu)\n",
                    name, quantile(v, 0.5), unit, quantile(v, 0.25),
                    quantile(v, 0.75), quantile(v, 1.0), v.size());
    };
    describe("wall_s", walls, "s");
    describe("cpu_s", cpus, "s");
    describe("setup_s", setups, "s");
    describe("peak_rss_mb", peaks, "MB");

    if (!trace || smoke) {
        result.metrics.push_back({"wall_s", wall, "s"});
        result.metrics.push_back({"cpu_s", quantile(cpus, 0.5), "s"});
        result.metrics.push_back({"setup_s", quantile(setups, 0.5), "s"});
        result.metrics.push_back({"peak_rss_mb", quantile(peaks, 0.5), "MB"});
        if (workload == "paper_conv") {
            addFidelity(first_cells, result);
        } else {
            // The gaps are properties of the model on the paper_conv
            // grid; other workloads price that grid once, untimed,
            // so every run reports them.
            RunOutputs probe = runUntimed(
                makeSetup("paper_conv", seed, threads, smoke));
            std::vector<Operation> ops = toOperations(probe);
            tally(ops, checkOperations(ops), "fidelity", result);
            addFidelity(probe.cells, result);
        }
    }
    if (trace || smoke)
        tracedRun(workload, seed, threads, smoke, reference, wall,
                  out_dir, result);
    std::printf("checks: %lld of %lld operations failed (failed_frac "
                "%.6g)\n",
                static_cast<long long>(result.failed),
                static_cast<long long>(result.attempted),
                ratio(static_cast<double>(result.failed),
                      static_cast<double>(result.attempted)));
    return result;
}

/** Tiny outputs that exercise every check, for the self-test. */
std::vector<Operation>
selfTestOperations(uint64_t seed, int threads)
{
    Setup sweep = makeSetup("paper_conv", seed, threads, true);
    sweep.sweep.accel.memory = sim::parseMemoryPreset("dadn");
    Setup serve = makeSetup("serve_fleet", seed, threads, true);
    RunOutputs outputs = runUntimed(sweep);
    outputs.reports = runUntimed(serve).reports;
    return toOperations(outputs);
}

/**
 * Timing a build with assertions or sanitizers measures the wrong
 * program: refuse before anything runs.
 */
void
refuseUntimeableBuild()
{
    const std::string type = PRABENCH_BUILD_TYPE;
    std::string why;
    if (type != "Release")
        why = "build type '" + type + "' (need Release)";
    if (!std::string(PRABENCH_SANITIZE).empty())
        why = "sanitizers '" PRABENCH_SANITIZE "'";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why = "a sanitizer build";
#endif
#ifndef NDEBUG
    why = "assertions enabled (NDEBUG unset)";
#endif
    if (!why.empty()) {
        std::fprintf(stderr,
                     "prabench: refusing to time this build: %s; "
                     "configure with -DCMAKE_BUILD_TYPE=Release and no "
                     "PRA_SANITIZE\n",
                     why.c_str());
        std::exit(3);
    }
}

void
printJsonString(const std::string &text)
{
    std::printf("\"");
    for (char ch : text) {
        if (ch == '"' || ch == '\\')
            std::printf("\\%c", ch);
        else
            std::printf("%c", ch);
    }
    std::printf("\"");
}

} // namespace

int
main(int argc, char **argv)
{
    // One malloc arena: the peak resident set then measures what the
    // simulator keeps live, not how its frees scatter across per-thread
    // arenas (which swings it by up to a fifth from run to run). It
    // holds for every commit measured alike.
    mallopt(M_ARENA_MAX, 1);
    util::ArgParser args(argc, argv);
    args.checkUnknown({"workload", "seed", "seconds", "trace", "out-dir",
                       "commit", "source", "smoke", "self-test"});
    const int threads = util::ThreadPool::hardwareThreads();
    const int64_t seed_arg = args.getInt("seed", 0x5eed);
    if (seed_arg < 0)
        util::fatal("--seed must be non-negative");
    const uint64_t seed = static_cast<uint64_t>(seed_arg);

    if (args.getBool("self-test")) {
        bool ok = selfTest(selfTestOperations(seed, threads));
        std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
        return ok ? 0 : 1;
    }
    refuseUntimeableBuild();

    const std::string workload = args.getString("workload", "");
    const double seconds = args.getDouble("seconds", 10.0);
    const int64_t trace = args.getInt("trace", 0);
    const bool smoke = args.getBool("smoke");
    if (trace != 0 && trace != 1)
        util::fatal("--trace must be 0 or 1");
    if (!(seconds > 0.0))
        util::fatal("--seconds must be positive");

    std::printf("provenance {\"workload\":");
    printJsonString(workload);
    std::printf(",\"seed\":%llu,\"seconds\":%g,\"trace\":%lld,"
                "\"smoke\":%s,\"nproc\":%d,\"threads\":%d,\"compiler\":",
                static_cast<unsigned long long>(seed), seconds,
                static_cast<long long>(trace), smoke ? "true" : "false",
                util::ThreadPool::hardwareThreads(), threads);
    printJsonString(PRABENCH_COMPILER);
    std::printf(",\"build_type\":");
    printJsonString(PRABENCH_BUILD_TYPE);
    std::printf(",\"commit\":");
    printJsonString(args.getString("commit", "unknown"));
    std::printf(",\"source_sha256\":");
    printJsonString(args.getString("source", "unknown"));
    std::printf("}\n");

    Result result = measure(workload, seed, seconds, trace == 1, smoke,
                            threads, args.getString("out-dir", ""));

    for (const auto &m : result.metrics)
        std::printf("metric %-32s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                "%lld, \"metrics\": {",
                result.failed == 0 ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed));
    for (size_t i = 0; i < result.metrics.size(); i++) {
        const Metric &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
