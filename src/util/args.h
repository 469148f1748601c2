/**
 * @file
 * A tiny command-line flag parser shared by benches and examples.
 *
 * Flags look like "--name=value"; bare "--name" sets a boolean.
 * "--name value" is deliberately unsupported: no front end takes
 * positional arguments, so checkUnknown() rejects the stray "value"
 * instead of silently ignoring it.
 *
 * Programs declare the flags they understand with checkUnknown():
 * a misspelled flag ("--smke") or a stray argument then fails loudly
 * instead of silently running with defaults.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pra {
namespace util {

/** Parsed command-line arguments. */
class ArgParser
{
  public:
    /** Parse argv; fatal() on malformed flags. */
    ArgParser(int argc, const char *const *argv);

    bool has(const std::string &name) const;

    /** String flag value, or @p fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;

    /** Integer flag value, or @p fallback when absent. */
    int64_t getInt(const std::string &name, int64_t fallback) const;

    /**
     * Integer flag value, or @p fallback when absent; fatal() naming
     * the flag unless the value lies in [@p lo, INT_MAX]. Use it
     * wherever a flag lands in an int, so a huge value is rejected
     * instead of wrapping.
     */
    int getIntAtLeast(const std::string &name, int fallback,
                      int lo) const;

    /** Double flag value, or @p fallback when absent. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Boolean flag: present without value, or
     * "true"/"false"/"1"/"0"/"yes"/"no"/"on"/"off".
     */
    bool getBool(const std::string &name, bool fallback = false) const;

    /**
     * fatal() when any parsed flag is not in @p known, or when an
     * argument is not a flag at all — call once, after construction,
     * with every flag the program understands. The error names the
     * closest known flag when one is plausible, and suggests the
     * "--name=value" form for a stray argument.
     */
    void checkUnknown(const std::vector<std::string> &known) const;

    const std::string &programName() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    /** Why the first non-flag argument was rejected ("": none seen). */
    std::string stray_;
};

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &list);

} // namespace util
} // namespace pra

