/** @file Config validation sweep. */

#include "core/config.h"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

namespace hoard {
namespace {

TEST(Config, DefaultsAreValid)
{
    Config config;
    config.validate();  // must not abort
    EXPECT_EQ(config.superblock_bytes, 8192u);
    EXPECT_DOUBLE_EQ(config.empty_fraction, 0.25);
    EXPECT_EQ(config.slack_superblocks, 8u);
    EXPECT_DOUBLE_EQ(config.release_threshold, 1.0);
    EXPECT_EQ(config.thread_cache_blocks, 16u);
    EXPECT_EQ(sim_config().thread_cache_blocks, 0u);
}

struct ConfigCase
{
    const char* name;
    std::function<void(Config&)> mutate;
    const char* expected_message;
};

// A case prints as the death message it expects.  Without this gtest
// prints its raw bytes — string-literal and std::function addresses
// that move with every link and with ASLR — and gtest_discover_tests
// folds that text into the ctest name.
void
PrintTo(const ConfigCase& c, std::ostream* os)
{
    *os << c.expected_message;
}

class ConfigValidationTest : public ::testing::TestWithParam<ConfigCase>
{};

TEST_P(ConfigValidationTest, RejectsOutOfRange)
{
    Config config;
    GetParam().mutate(config);
    EXPECT_DEATH(config.validate(), GetParam().expected_message);
}

INSTANTIATE_TEST_SUITE_P(
    BadValues, ConfigValidationTest,
    ::testing::Values(
        ConfigCase{"NonPow2Superblock",
                   [](Config& c) { c.superblock_bytes = 10000; },
                   "power of two"},
        ConfigCase{"TinySuperblock",
                   [](Config& c) { c.superblock_bytes = 512; },
                   "power of two"},
        ConfigCase{"ZeroEmptyFraction",
                   [](Config& c) { c.empty_fraction = 0.0; },
                   "empty_fraction"},
        ConfigCase{"FullEmptyFraction",
                   [](Config& c) { c.empty_fraction = 1.0; },
                   "empty_fraction"},
        ConfigCase{"ReleaseBelowF",
                   [](Config& c) {
                       c.empty_fraction = 0.5;
                       c.release_threshold = 0.25;
                   },
                   "release_threshold"},
        ConfigCase{"ReleaseAboveOne",
                   [](Config& c) { c.release_threshold = 1.5; },
                   "release_threshold"},
        ConfigCase{"BaseTooSmall",
                   [](Config& c) { c.size_class_base = 1.0; },
                   "size_class_base"},
        ConfigCase{"BaseTooLarge",
                   [](Config& c) { c.size_class_base = 8.0; },
                   "size_class_base"},
        ConfigCase{"MinBlockNotMultiple",
                   [](Config& c) { c.min_block_bytes = 12; },
                   "min_block_bytes"},
        ConfigCase{"MinBlockZero",
                   [](Config& c) { c.min_block_bytes = 0; },
                   "min_block_bytes"},
        ConfigCase{"HeapCountZero",
                   [](Config& c) { c.heap_count = 0; }, "heap_count"},
        ConfigCase{"HeapCountHuge",
                   [](Config& c) { c.heap_count = 100000; },
                   "heap_count"},
        ConfigCase{"MinBlockVsSuperblock",
                   [](Config& c) {
                       c.superblock_bytes = 1024;
                       c.min_block_bytes = 512;
                   },
                   "too large"}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
        return info.param.name;
    });

TEST(Config, BoundaryValuesAccepted)
{
    Config config;
    config.empty_fraction = 0.001;
    config.release_threshold = 0.001;
    config.validate();

    Config config2;
    config2.empty_fraction = 0.999;
    config2.release_threshold = 1.0;
    config2.slack_superblocks = 0;
    config2.heap_count = 4096;
    config2.validate();

    Config config3;
    config3.superblock_bytes = 1024;
    config3.min_block_bytes = 8;
    config3.validate();
}

}  // namespace
}  // namespace hoard
