#include "trace.h"

#include <chrono>
#include <cstdio>

namespace prabench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &log : logs_) {
        log->spans.clear();
        log->open.clear();
    }
}

ThreadLog &
Tracer::threadLog()
{
    // The log outlives its thread (the tracer owns it), so spans of
    // pool workers that have exited stay readable.
    thread_local ThreadLog *mine = nullptr;
    if (!mine) {
        std::lock_guard<std::mutex> lock(mutex_);
        logs_.push_back(std::make_unique<ThreadLog>());
        mine = logs_.back().get();
        mine->thread = static_cast<int>(logs_.size()) - 1;
    }
    return *mine;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> self;
    for (const auto &log : logs_) {
        std::vector<int64_t> child_ns(log->spans.size(), 0);
        for (const auto &span : log->spans)
            if (span.parent >= 0)
                child_ns[static_cast<size_t>(span.parent)] +=
                    span.endNs - span.startNs;
        for (size_t i = 0; i < log->spans.size(); i++) {
            const SpanRecord &span = log->spans[i];
            self[span.name] +=
                static_cast<double>(span.endNs - span.startNs -
                                    child_ns[i]) *
                1e-9;
        }
    }
    return self;
}

double
Tracer::workerBusySeconds(int64_t since_ns, int main_thread) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t busy = 0;
    for (const auto &log : logs_) {
        if (log->thread == main_thread)
            continue;
        for (const auto &span : log->spans)
            if (span.parent < 0 && span.startNs >= since_ns)
                busy += span.endNs - span.startNs;
    }
    return static_cast<double>(busy) * 1e-9;
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t origin = 0;
    for (const auto &log : logs_)
        for (const auto &span : log->spans)
            if (origin == 0 || span.startNs < origin)
                origin = span.startNs;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &log : logs_) {
        for (const auto &span : log->spans) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                          "\"ts\":%.3f,\"dur\":%.3f}",
                          log->thread,
                          static_cast<double>(span.startNs - origin) *
                              1e-3,
                          static_cast<double>(span.endNs -
                                              span.startNs) *
                              1e-3);
            out << (first ? "" : ",") << "\n{\"name\":\"" << span.name
                << "\"," << buf;
            first = false;
        }
    }
    out << "\n]}\n";
}

Span::Span(std::string name) : log_(tracer().threadLog())
{
    SpanRecord record;
    record.name = std::move(name);
    record.parent = log_.open.empty() ? -1 : log_.open.back();
    record.startNs = nowNs();
    index_ = static_cast<int>(log_.spans.size());
    log_.spans.push_back(std::move(record));
    log_.open.push_back(index_);
}

Span::~Span()
{
    log_.spans[static_cast<size_t>(index_)].endNs = nowNs();
    log_.open.pop_back();
}

} // namespace prabench
