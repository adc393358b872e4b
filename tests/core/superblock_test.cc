/** @file Unit tests for the superblock data structure. */

#include "core/superblock.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/memutil.h"
#include "os/page_provider.h"

namespace hoard {
namespace {

constexpr std::size_t kS = 8192;

class SuperblockTest : public ::testing::Test
{
  protected:
    void*
    map()
    {
        void* mem = provider_.map(kS, kS);
        mapped_.push_back(mem);
        return mem;
    }

    void
    TearDown() override
    {
        for (void* mem : mapped_)
            provider_.unmap(mem, kS);
    }

    os::MmapPageProvider provider_;
    std::vector<void*> mapped_;
};

TEST_F(SuperblockTest, CreateComputesCapacity)
{
    Superblock* sb = Superblock::create(map(), kS, 3, 64);
    EXPECT_EQ(sb->size_class(), 3);
    EXPECT_EQ(sb->block_bytes(), 64u);
    EXPECT_EQ(sb->capacity(), (kS - Superblock::header_bytes()) / 64);
    EXPECT_TRUE(sb->empty());
    EXPECT_FALSE(sb->full());
    EXPECT_FALSE(sb->huge());
}

TEST_F(SuperblockTest, HeaderKeepsBlocksAligned)
{
    EXPECT_EQ(Superblock::header_bytes() % detail::kCacheLineBytes, 0u);
    Superblock* sb = Superblock::create(map(), kS, 0, 16);
    void* first = sb->allocate();
    EXPECT_TRUE(detail::is_aligned(first, 16));
}

TEST_F(SuperblockTest, AllocateAllBlocksDistinctAndInRange)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 128);
    std::set<void*> blocks;
    while (!sb->full()) {
        void* p = sb->allocate();
        EXPECT_TRUE(blocks.insert(p).second) << "duplicate block";
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        auto base = reinterpret_cast<std::uintptr_t>(sb);
        EXPECT_GE(addr, base + Superblock::header_bytes());
        EXPECT_LE(addr + 128, base + kS);
    }
    EXPECT_EQ(blocks.size(), sb->capacity());
    EXPECT_EQ(sb->used(), sb->capacity());
}

TEST_F(SuperblockTest, FreeListLifoReuse)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    void* a = sb->allocate();
    void* b = sb->allocate();
    sb->deallocate(a);
    sb->deallocate(b);
    // LIFO: most recently freed comes back first.
    EXPECT_EQ(sb->allocate(), b);
    EXPECT_EQ(sb->allocate(), a);
}

TEST_F(SuperblockTest, UsedCountsTrackOperations)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 256);
    std::vector<void*> blocks;
    for (int i = 0; i < 10; ++i)
        blocks.push_back(sb->allocate());
    EXPECT_EQ(sb->used(), 10u);
    EXPECT_EQ(sb->used_bytes(), 10u * 256u);
    for (int i = 0; i < 4; ++i) {
        sb->deallocate(blocks.back());
        blocks.pop_back();
    }
    EXPECT_EQ(sb->used(), 6u);
}

TEST_F(SuperblockTest, FromPointerMasksAnyInteriorAddress)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    void* p = sb->allocate();
    auto* bytes = static_cast<char*>(p);
    EXPECT_EQ(Superblock::from_pointer(p, kS), sb);
    EXPECT_EQ(Superblock::from_pointer(bytes + 63, kS), sb);
}

TEST_F(SuperblockTest, BlockStartRoundsInteriorPointers)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    void* a = sb->allocate();
    void* b = sb->allocate();
    auto* mid_b = static_cast<char*>(b) + 17;
    EXPECT_EQ(sb->block_start(mid_b), b);
    EXPECT_EQ(sb->block_start(a), a);
}

TEST_F(SuperblockTest, DeallocateInteriorPointerFreesWholeBlock)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    void* a = sb->allocate();
    sb->deallocate(static_cast<char*>(a) + 32);
    EXPECT_TRUE(sb->empty());
    EXPECT_EQ(sb->allocate(), a);
}

TEST_F(SuperblockTest, FullnessGroupBands)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    EXPECT_EQ(sb->fullness_group(), 0);
    std::vector<void*> blocks;
    while (!sb->full())
        blocks.push_back(sb->allocate());
    EXPECT_EQ(sb->fullness_group(), Superblock::kFullGroup);
    // Free half: group must be the middle band.
    for (std::size_t i = 0; i < blocks.size() / 2; ++i)
        sb->deallocate(blocks[i]);
    int g = sb->fullness_group();
    EXPECT_GE(g, Superblock::kFullnessBands / 2 - 1);
    EXPECT_LE(g, Superblock::kFullnessBands / 2 + 1);
}

TEST_F(SuperblockTest, FullnessGroupMonotonicInUsed)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 512);
    int prev = sb->fullness_group();
    while (!sb->full()) {
        sb->allocate();
        int g = sb->fullness_group();
        EXPECT_GE(g, prev);
        prev = g;
    }
}

TEST_F(SuperblockTest, AtLeastFractionEmpty)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    EXPECT_TRUE(sb->at_least_fraction_empty(1.0));
    std::vector<void*> blocks;
    while (!sb->full())
        blocks.push_back(sb->allocate());
    EXPECT_FALSE(sb->at_least_fraction_empty(0.25));
    // Free a quarter.
    std::size_t quarter = blocks.size() / 4 + 1;
    for (std::size_t i = 0; i < quarter; ++i)
        sb->deallocate(blocks[i]);
    EXPECT_TRUE(sb->at_least_fraction_empty(0.25));
    EXPECT_FALSE(sb->at_least_fraction_empty(0.5));
}

TEST_F(SuperblockTest, ReformatChangesClassWhenEmpty)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    void* p = sb->allocate();
    sb->deallocate(p);
    ASSERT_TRUE(sb->empty());
    sb->reformat(5, 512);
    EXPECT_EQ(sb->size_class(), 5);
    EXPECT_EQ(sb->block_bytes(), 512u);
    EXPECT_EQ(sb->capacity(), (kS - Superblock::header_bytes()) / 512);
    // Old free list must be gone: fresh bump allocation.
    void* q = sb->allocate();
    EXPECT_TRUE(detail::is_aligned(q, 16));
}

TEST_F(SuperblockTest, OwnerRoundTrips)
{
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    EXPECT_EQ(sb->owner(), nullptr);
    int heap_stand_in;
    sb->set_owner(&heap_stand_in);
    EXPECT_EQ(sb->owner(), &heap_stand_in);
}

TEST_F(SuperblockTest, HugeSuperblock)
{
    void* mem = provider_.map(kS * 3, kS);
    Superblock* sb = Superblock::create_huge(
        mem, kS * 3, Superblock::header_bytes(), 20000);
    EXPECT_TRUE(sb->huge());
    EXPECT_EQ(sb->huge_user_bytes(), 20000u);
    EXPECT_EQ(sb->span_bytes(), kS * 3);
    EXPECT_EQ(sb->used_bytes(), 20000u);
    EXPECT_FALSE(sb->empty());
    // The mask finds the header from the user pointer.
    void* user = static_cast<char*>(mem) + Superblock::header_bytes();
    EXPECT_EQ(Superblock::from_pointer(user, kS), sb);
    provider_.unmap(mem, kS * 3);
}

TEST_F(SuperblockTest, PatternsSurviveNeighborChurn)
{
    // Data in live blocks is untouched while neighbors are recycled.
    Superblock* sb = Superblock::create(map(), kS, 0, 64);
    void* keep = sb->allocate();
    detail::pattern_fill(keep, 64, 1);
    for (int i = 0; i < 1000; ++i) {
        void* tmp = sb->allocate();
        detail::pattern_fill(tmp, 64, 2);
        sb->deallocate(tmp);
    }
    EXPECT_TRUE(detail::pattern_check(keep, 64, 1));
}

TEST_F(SuperblockTest, DeathOnForeignPointer)
{
    // An aligned, zeroed region that was never formatted: the magic
    // check must reject pointers into it loudly.
    void* region = provider_.map(kS, kS);
    mapped_.push_back(region);
    EXPECT_DEATH(
        Superblock::from_pointer(static_cast<char*>(region) + 100, kS),
        "not from this allocator");
}

}  // namespace
}  // namespace hoard
