/** @file Unit tests for HoardHeap's fullness-group bookkeeping. */

#include "core/heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/size_classes.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"

namespace hoard {
namespace {

constexpr std::size_t kS = 8192;

TEST(HeapLayout, RemoteHeadHasItsOwnCacheLine)
{
    // Remote freers CAS the head while the owner writes u_i / a_i under
    // its lock; neither they nor a derived home's fields may share it.
    auto line = [](const void* p) {
        return reinterpret_cast<std::uintptr_t>(p) / 64;
    };
    HoardHeap<NativePolicy> heap(1, 4);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&heap.remote_head) % 64,
              0u);
    EXPECT_NE(line(&heap.remote_head), line(&heap.in_use));
    EXPECT_NE(line(&heap.remote_head), line(&heap.held));
    EXPECT_NE(line(&heap.remote_head), line(&heap.bins));
    GlobalBin<NativePolicy> bin(0);
    EXPECT_NE(line(&bin.remote_head), line(&bin.held));
    EXPECT_NE(line(&bin.remote_head), line(&bin.occupancy));
}

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest() : classes_(config_, Superblock::payload_bytes_for(kS)) {}

    Superblock*
    make_superblock(int cls)
    {
        void* mem = provider_.map(kS, kS);
        mapped_.push_back(mem);
        return Superblock::create(
            mem, kS, cls,
            static_cast<std::uint32_t>(classes_.block_size(cls)));
    }

    void
    TearDown() override
    {
        for (void* mem : mapped_)
            provider_.unmap(mem, kS);
    }

    Config config_;
    SizeClasses classes_;
    os::MmapPageProvider provider_;
    std::vector<void*> mapped_;
    HoardHeap<NativePolicy> heap_{1, 40};
};

TEST_F(HeapTest, LinkPlacesInCorrectGroup)
{
    Superblock* sb = make_superblock(0);
    heap_.link(sb);
    int probes = 0;
    // Empty superblock lives in band 0, which find_allocatable reaches
    // only after probing every fuller band.
    EXPECT_EQ(heap_.find_allocatable(0, &probes), sb);
    EXPECT_EQ(probes, Superblock::kFullnessBands);
}

TEST_F(HeapTest, FindAllocatablePrefersFullest)
{
    Superblock* nearly_full = make_superblock(0);
    Superblock* half = make_superblock(0);
    Superblock* empty = make_superblock(0);

    while (!nearly_full->full())
        nearly_full->allocate();
    nearly_full->deallocate(
        nearly_full->payload_begin());  // one free slot
    for (std::uint32_t i = 0; i < half->capacity() / 2; ++i)
        half->allocate();

    heap_.link(empty);
    heap_.link(half);
    heap_.link(nearly_full);

    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nearly_full);
}

TEST_F(HeapTest, FullSuperblocksNotOffered)
{
    Superblock* sb = make_superblock(0);
    while (!sb->full())
        sb->allocate();
    heap_.link(sb);
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nullptr);
}

TEST_F(HeapTest, RelinkFollowsFullnessChanges)
{
    Superblock* sb = make_superblock(0);
    heap_.link(sb);
    // Fill it completely, relinking as the group changes.
    while (!sb->full()) {
        int old_group = sb->fullness_group();
        sb->allocate();
        heap_.relink(sb, old_group);
    }
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nullptr);
    // Free one block: it must be findable again.
    int old_group = sb->fullness_group();
    sb->deallocate(sb->payload_begin());
    heap_.relink(sb, old_group);
    EXPECT_EQ(heap_.find_allocatable(0, &probes), sb);
}

TEST_F(HeapTest, ClassesAreSegregated)
{
    Superblock* a = make_superblock(0);
    Superblock* b = make_superblock(3);
    heap_.link(a);
    heap_.link(b);
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), a);
    EXPECT_EQ(heap_.find_allocatable(3, &probes), b);
    EXPECT_EQ(heap_.find_allocatable(7, &probes), nullptr);
}

TEST_F(HeapTest, TransferVictimMustBeFractionEmpty)
{
    Superblock* busy = make_superblock(0);
    // Fill until fewer than 26% of its blocks are free.
    while (busy->at_least_fraction_empty(0.26) && !busy->full())
        busy->allocate();
    heap_.link(busy);
    // busy is less than 26% empty, so no victim at f=0.5.
    EXPECT_EQ(heap_.find_transfer_victim(0.5), nullptr);

    Superblock* idle = make_superblock(2);
    idle->allocate();
    heap_.link(idle);
    EXPECT_EQ(heap_.find_transfer_victim(0.5), idle);
}

TEST_F(HeapTest, TransferVictimPrefersEmptiest)
{
    Superblock* half = make_superblock(0);
    for (std::uint32_t i = 0; i < half->capacity() / 2; ++i)
        half->allocate();
    Superblock* nearly_empty = make_superblock(0);
    nearly_empty->allocate();
    heap_.link(half);
    heap_.link(nearly_empty);
    EXPECT_EQ(heap_.find_transfer_victim(0.25), nearly_empty);
}

TEST_F(HeapTest, UnlinkRemovesFromGroup)
{
    Superblock* sb = make_superblock(0);
    heap_.link(sb);
    heap_.unlink(sb, sb->fullness_group());
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nullptr);
}

}  // namespace
}  // namespace hoard
