/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "util/args.h"

namespace pra {
namespace util {
namespace {

ArgParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm)
{
    auto args = parse({"--network=alexnet", "--pallets=64"});
    EXPECT_EQ(args.getString("network"), "alexnet");
    EXPECT_EQ(args.getInt("pallets", 0), 64);
}

TEST(ArgParserDeathTest, SpaceFormIsRejected)
{
    // Regression: "--csv out.csv" used to parse as a boolean --csv
    // plus an ignored positional, so the run wrote no file and still
    // exited 0. The stray value is now fatal, with the fix spelled
    // out.
    auto args = parse({"--smoke", "--csv", "out.csv"});
    EXPECT_DEATH(args.checkUnknown({"smoke", "csv"}),
                 "unexpected argument 'out.csv' \\(did you mean "
                 "--csv=out.csv\\?\\)");
}

TEST(ArgParserDeathTest, StrayArgumentIsRejected)
{
    auto args = parse({"alexnet", "--full"});
    EXPECT_DEATH(args.checkUnknown({"full"}),
                 "unexpected argument 'alexnet'; flags take values as "
                 "--name=value");
}

TEST(ArgParser, BareBooleanFlag)
{
    auto args = parse({"--full"});
    EXPECT_TRUE(args.getBool("full"));
    EXPECT_FALSE(args.getBool("absent"));
    EXPECT_TRUE(args.getBool("absent", true));
}

TEST(ArgParser, ExplicitBooleanValues)
{
    EXPECT_TRUE(parse({"--x=true"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=on"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=false"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=0"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=off"}).getBool("x"));
}

TEST(ArgParserDeathTest, RejectsMalformedBoolean)
{
    auto args = parse({"--per-layer=of"});
    EXPECT_DEATH(args.getBool("per-layer"), "expects a boolean");
}

TEST(ArgParser, IntAtLeastAcceptsTheFullIntRange)
{
    EXPECT_EQ(parse({"--n=1"}).getIntAtLeast("n", 7, 1), 1);
    EXPECT_EQ(parse({"--n=0"}).getIntAtLeast("n", 7, 0), 0);
    EXPECT_EQ(parse({"--n=2147483647"}).getIntAtLeast("n", 7, 1),
              2147483647);
    EXPECT_EQ(parse({}).getIntAtLeast("n", 7, 1), 7);
}

TEST(ArgParserDeathTest, IntAtLeastRejectsValuesOutsideTheIntRange)
{
    // Values an int cast used to wrap (to 1, 0, 1215752191 and a
    // negative fleet size) or that fall below the flag's floor.
    struct Case
    {
        const char *arg;
        int lo;
    };
    const Case cases[] = {
        {"--n=4294967297", 1}, {"--n=4294967296", 0},
        {"--n=99999999999", 1}, {"--n=3000000000", 1},
        {"--n=2147483648", 0}, {"--n=99999999999999999999", 1},
        {"--n=0", 1},          {"--n=-1", 0},
        {"--n=-4294967295", 0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.arg);
        ArgParser args = parse({c.arg});
        EXPECT_DEATH(args.getIntAtLeast("n", 1, c.lo),
                     "--n must be an integer in \\[" +
                         std::to_string(c.lo) + ", 2147483647\\]");
    }
}

TEST(ArgParser, Doubles)
{
    auto args = parse({"--scale=2.5"});
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
}

TEST(ArgParser, FallbacksWhenAbsent)
{
    auto args = parse({});
    EXPECT_EQ(args.getString("x", "dflt"), "dflt");
    EXPECT_EQ(args.getInt("x", 7), 7);
}

TEST(ArgParser, HasDetectsPresence)
{
    auto args = parse({"--a=1"});
    EXPECT_TRUE(args.has("a"));
    EXPECT_FALSE(args.has("b"));
}

TEST(ArgParser, NegativeNumberValue)
{
    auto args = parse({"--offset=-5"});
    EXPECT_EQ(args.getInt("offset", 0), -5);
}

TEST(ArgParser, CheckUnknownAcceptsKnownFlags)
{
    auto args = parse({"--smoke", "--units=4"});
    args.checkUnknown({"smoke", "units", "full"});
    SUCCEED(); // Known flags pass; unused known flags are fine.
}

TEST(ArgParserDeathTest, CheckUnknownRejectsTypo)
{
    // Regression: "--smke" used to be silently ignored, running the
    // full non-smoke bench in CI.
    auto args = parse({"--smke"});
    EXPECT_DEATH(args.checkUnknown({"smoke", "units"}),
                 "unknown flag --smke.*did you mean --smoke");
}

TEST(ArgParserDeathTest, CheckUnknownRejectsUnrelatedFlag)
{
    auto args = parse({"--frobnicate=1"});
    EXPECT_DEATH(args.checkUnknown({"smoke", "units"}),
                 "unknown flag --frobnicate");
}

TEST(SplitList, DropsEmptyItems)
{
    EXPECT_EQ(splitList("a,b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList(",a,,b,"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(",,").empty());
}

} // namespace
} // namespace util
} // namespace pra
