/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A Span marks one call into a simulator layer: it records its name,
 * host start and end time, the enclosing span on the same thread
 * (its parent) and the thread. Spans stay in memory until the run
 * ends; selfSeconds() then charges each span its duration minus the
 * time its direct children cover, so the self times of one thread
 * never double count. Only the traced run creates spans: the
 * untimed runs call the simulator's entry points with no
 * instrumentation at all.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace prabench {

/** Host monotonic time in nanoseconds. */
int64_t nowNs();

/** One finished (or still open: endNs == 0) span. */
struct SpanRecord
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1; ///< Index of the enclosing span on this thread.
};

/** The spans one thread recorded, in start order. */
struct ThreadLog
{
    int thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<int> open; ///< Stack of open span indices.
};

/** Process-wide span store; every thread appends to its own log. */
class Tracer
{
  public:
    /** Drop every recorded span (call with no span open). */
    void reset();

    /** This thread's log, created on first use. */
    ThreadLog &threadLog();

    /** Self seconds summed per span name, over every thread. */
    std::map<std::string, double> selfSeconds() const;

    /**
     * Total duration of the root spans (no parent) that started at or
     * after @p since_ns on threads other than @p main_thread — the
     * busy time of the worker threads in a parallel phase.
     */
    double workerBusySeconds(int64_t since_ns, int main_thread) const;

    /** Write every span as a Chrome Trace Event Format document. */
    void writeChromeTrace(std::ostream &out) const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/** The tracer every Span records into. */
Tracer &tracer();

/** RAII span: open on construction, closed on destruction. */
class Span
{
  public:
    explicit Span(std::string name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    ThreadLog &log_;
    int index_;
};

/**
 * Exact work counts recorded at the same boundaries as the spans.
 * Atomic because the parallel phases update them from every worker.
 */
struct Counters
{
    std::atomic<int64_t> streams{0};     ///< Activation streams built.
    std::atomic<int64_t> neurons{0};     ///< Neurons in those streams.
    std::atomic<int64_t> weightCodes{0}; ///< Weight codes synthesized.
    std::atomic<int64_t> macs{0};        ///< Reference forward-pass MACs.
    std::atomic<int64_t> bricks{0};      ///< Bricks packed into planes.
    std::atomic<int64_t> cyclePlanes{0}; ///< Schedule-cycle planes built.
    std::atomic<int64_t> units{0};       ///< Pallets priced.
    std::atomic<int64_t> memoryLayers{0};
    std::atomic<int64_t> curveImages{0};
    std::atomic<int64_t> requests{0};    ///< Requests offered to fleets.
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> retries{0};
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> cacheHits{0};
    std::atomic<int64_t> cacheMisses{0};
};

} // namespace prabench
