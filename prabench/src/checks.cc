#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>

#include "sim/sweep.h"

namespace prabench {

namespace {

double
cellNumber(const Operation &op, size_t row, int col)
{
    const std::string &text =
        op.table.rows[row][static_cast<size_t>(col)];
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        return std::nan("");
    return value;
}

/** The layer-row checks of one sweep cell. */
void
checkCell(const Operation &op, size_t index, CheckReport &report)
{
    const int cycles = op.table.column("cycles");
    const int stalls = op.table.column("mem_stall_cycles");
    const int system = op.table.column("system_cycles");
    if (cycles < 0 || op.table.rows.empty()) {
        report.fail(index, "no layer rows");
        return;
    }
    for (size_t r = 0; r < op.table.rows.size(); r++) {
        double c = cellNumber(op, r, cycles);
        if (!(std::isfinite(c) && c > 0.0))
            report.fail(index, "non-positive cycles in row " +
                                   std::to_string(r));
        if (system >= 0 && stalls >= 0 &&
            cellNumber(op, r, system) != c + cellNumber(op, r, stalls))
            report.fail(index, "system_cycles != cycles + "
                               "mem_stall_cycles in row " +
                                   std::to_string(r));
    }
}

/** Pallet-sync PRA-Lb cycles must not grow with L, per network. */
void
checkPalletMonotone(const std::vector<Operation> &ops,
                    CheckReport &report)
{
    // network -> L -> (operation index, total cycles)
    std::map<std::string, std::map<int, std::pair<size_t, double>>>
        grid;
    for (size_t i = 0; i < ops.size(); i++) {
        const Operation &op = ops[i];
        int bits = -1;
        char tail = 0;
        if (op.serving ||
            std::sscanf(op.engine.c_str(), "PRA-%db%c", &bits, &tail) !=
                1)
            continue;
        const int cycles = op.table.column("cycles");
        double total = 0.0;
        for (size_t r = 0; cycles >= 0 && r < op.table.rows.size(); r++)
            total += cellNumber(op, r, cycles);
        grid[op.network][bits] = {i, total};
    }
    for (const auto &[network, by_bits] : grid) {
        for (auto it = by_bits.begin(); it != by_bits.end(); ++it) {
            auto next = std::next(it);
            if (next != by_bits.end() &&
                !(next->second.second <= it->second.second))
                report.fail(next->second.first,
                            "PRA-" + std::to_string(next->first) +
                                "b slower than PRA-" +
                                std::to_string(it->first) + "b on " +
                                network);
        }
    }
}

/** Request conservation and percentile order of one serving row. */
void
checkServingRow(const Operation &op, size_t index, CheckReport &report)
{
    if (op.table.rows.size() != 1) {
        report.fail(index, "serving op is not one row");
        return;
    }
    auto value = [&](const char *name, double absent) {
        int col = op.table.column(name);
        return col < 0 ? absent : cellNumber(op, 0, col);
    };
    const double requests = value("requests", std::nan(""));
    // Fault-free CSVs omit the degraded columns: every request
    // completes there by construction.
    const double completed = value("completed", requests);
    const double shed = value("shed_requests", 0.0);
    const double lost = value("permanent_failures", 0.0);
    if (!(completed + shed + lost == requests))
        report.fail(index, "completed + shed + permanent failures != "
                           "requests");
    const double p50 = value("p50_cycles", std::nan(""));
    const double p95 = value("p95_cycles", std::nan(""));
    const double p99 = value("p99_cycles", std::nan(""));
    if (!(p50 <= p95 && p95 <= p99))
        report.fail(index, "latency percentiles out of order");
}

/** Parse @p text (RFC 4180 quoting) into a table. */
CsvTable
parseCsv(const std::string &text)
{
    CsvTable table;
    std::vector<std::vector<std::string>> lines;
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (size_t i = 0; i < text.size(); i++) {
        char ch = text[i];
        if (quoted) {
            if (ch == '"' && i + 1 < text.size() && text[i + 1] == '"') {
                field += '"';
                i++;
            } else if (ch == '"') {
                quoted = false;
            } else {
                field += ch;
            }
        } else if (ch == '"') {
            quoted = true;
        } else if (ch == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else if (ch == '\n') {
            fields.push_back(std::move(field));
            field.clear();
            lines.push_back(std::move(fields));
            fields.clear();
        } else if (ch != '\r') {
            field += ch;
        }
    }
    if (!field.empty() || !fields.empty()) {
        fields.push_back(std::move(field));
        lines.push_back(std::move(fields));
    }
    if (!lines.empty()) {
        table.header = std::move(lines.front());
        table.rows.assign(std::make_move_iterator(lines.begin() + 1),
                          std::make_move_iterator(lines.end()));
    }
    return table;
}

} // namespace

int
CsvTable::column(const std::string &name) const
{
    for (size_t i = 0; i < header.size(); i++)
        if (header[i] == name)
            return static_cast<int>(i);
    return -1;
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char ch : text) {
        hash ^= ch;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::vector<Operation>
toOperations(const RunOutputs &outputs)
{
    std::vector<Operation> ops;
    for (const auto &cell : outputs.cells) {
        Operation op;
        op.label = cell.networkName + "/" + cell.engineName;
        op.network = cell.networkName;
        op.engine = cell.engineName;
        std::ostringstream out;
        pra::sim::writeSweepCsv(out, {cell}, /*per_layer=*/true);
        op.csv = out.str();
        op.table = parseCsv(op.csv);
        ops.push_back(std::move(op));
    }
    for (const auto &report : outputs.reports) {
        Operation op;
        char rate[32];
        std::snprintf(rate, sizeof rate, "%g", report.offeredPerSecond);
        op.label = report.networkName + "/" + report.engineName + "/" +
                   rate + (report.degraded ? "/faulted" : "/ideal");
        op.network = report.networkName;
        op.engine = report.engineName;
        op.serving = true;
        std::ostringstream out;
        pra::sim::writeServingCsv(out, {report});
        op.csv = out.str();
        op.table = parseCsv(op.csv);
        ops.push_back(std::move(op));
    }
    return ops;
}

void
CheckReport::fail(size_t op, const std::string &why)
{
    if (reasons[op].empty())
        reasons[op] = why;
}

int64_t
CheckReport::failed() const
{
    int64_t n = 0;
    for (const auto &reason : reasons)
        n += reason.empty() ? 0 : 1;
    return n;
}

CheckReport
checkOperations(const std::vector<Operation> &ops)
{
    CheckReport report(ops.size());
    for (size_t i = 0; i < ops.size(); i++) {
        if (ops[i].serving)
            checkServingRow(ops[i], i, report);
        else
            checkCell(ops[i], i, report);
    }
    checkPalletMonotone(ops, report);
    return report;
}

void
checkSameOutputs(const std::vector<Operation> &reference,
                 const std::vector<Operation> &ops,
                 const std::string &what, CheckReport &report)
{
    for (size_t i = 0; i < ops.size(); i++)
        if (ops.size() != reference.size() ||
            fnv1a(ops[i].csv) != fnv1a(reference[i].csv))
            report.fail(i, what + " output differs");
}

bool
selfTest(const std::vector<Operation> &ops)
{
    auto findOp = [&](bool serving, const std::string &engine,
                      const char *must_have) -> size_t {
        for (size_t i = 0; i < ops.size(); i++)
            if (ops[i].serving == serving &&
                (engine.empty() || ops[i].engine == engine) &&
                ops[i].table.column(must_have) >= 0)
                return i;
        std::fprintf(stderr, "self-test: no operation to break (%s)\n",
                     must_have);
        std::exit(1);
    };
    auto setCell = [](Operation &op, const char *column, size_t row,
                      const std::string &value) {
        op.table.rows[row][static_cast<size_t>(op.table.column(column))] =
            value;
    };

    struct Case
    {
        const char *name;
        size_t op;
        std::function<void(std::vector<Operation> &)> breakIt;
    };
    const size_t serve = findOp(true, "", "completed");
    const size_t layer = findOp(false, "", "system_cycles");
    const size_t pra3 = findOp(false, "PRA-3b", "cycles");
    const std::vector<Case> cases = {
        {"serving row loses one request", serve,
         [&](std::vector<Operation> &v) {
             const Operation &op = v[serve];
             int col = op.table.column("completed");
             long completed = std::atol(
                 op.table.rows[0][static_cast<size_t>(col)].c_str());
             setCell(v[serve], "completed", 0,
                     std::to_string(completed - 1));
         }},
        {"serving p95 above p99", serve,
         [&](std::vector<Operation> &v) {
             const Operation &op = v[serve];
             int col = op.table.column("p99_cycles");
             long p99 = std::atol(
                 op.table.rows[0][static_cast<size_t>(col)].c_str());
             setCell(v[serve], "p95_cycles", 0, std::to_string(p99 + 1));
         }},
        {"layer system_cycles != cycles + mem_stall_cycles", layer,
         [&](std::vector<Operation> &v) {
             const Operation &op = v[layer];
             double system = cellNumber(
                 op, 0, op.table.column("system_cycles"));
             char buf[40];
             std::snprintf(buf, sizeof buf, "%.17g", system + 1.0);
             setCell(v[layer], "system_cycles", 0, buf);
         }},
        {"PRA-3b slower than PRA-2b", pra3,
         [&](std::vector<Operation> &v) {
             // Slow every layer, keeping each row self-consistent so
             // only the cross-engine check can catch it.
             Operation &op = v[pra3];
             int col = op.table.column("cycles");
             int stalls = op.table.column("mem_stall_cycles");
             for (size_t r = 0; r < op.table.rows.size(); r++) {
                 double cycles = 2.0 * cellNumber(op, r, col) + 1.0;
                 char buf[40];
                 std::snprintf(buf, sizeof buf, "%.17g", cycles);
                 setCell(op, "cycles", r, buf);
                 if (stalls >= 0) {
                     std::snprintf(buf, sizeof buf, "%.17g",
                                   cycles + cellNumber(op, r, stalls));
                     setCell(op, "system_cycles", r, buf);
                 }
             }
         }},
        {"traced output differs from untimed output", layer,
         [&](std::vector<Operation> &v) { v[layer].csv += " "; }},
    };

    bool ok = true;
    const int64_t clean = checkOperations(ops).failed();
    std::printf("self-test: clean outputs: %lld of %zu operations "
                "failed (want 0)\n",
                static_cast<long long>(clean), ops.size());
    ok = ok && clean == 0;
    for (const auto &c : cases) {
        std::vector<Operation> broken = ops;
        c.breakIt(broken);
        CheckReport report = checkOperations(broken);
        checkSameOutputs(ops, broken, "traced", report);
        const bool caught = !report.reasons[c.op].empty() &&
                            report.failed() == 1;
        std::printf("self-test: %-48s %s (%s: %s)\n", c.name,
                    caught ? "counted as failed" : "MISSED",
                    broken[c.op].label.c_str(),
                    report.reasons[c.op].c_str());
        ok = ok && caught;
    }
    return ok;
}

} // namespace prabench
