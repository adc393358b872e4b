/**
 * @file
 * Pure-private-heaps baseline (paper §2.1's "pure private heaps"
 * category: Cilk and the STL per-thread allocators).
 *
 * Each thread owns a heap; a freed block lands on the *freeing* thread's
 * free list regardless of which heap carved it.  That choice is what the
 * paper indicts: memory freed remotely can never be reused by its
 * producer, so a producer-consumer pair leaks the producer's superblocks
 * forever — unbounded blowup (TBL-blowup demonstrates it).  Superblocks
 * are bump-carved and never recycled or returned.
 */

#ifndef HOARD_BASELINES_PURE_PRIVATE_ALLOCATOR_H_
#define HOARD_BASELINES_PURE_PRIVATE_ALLOCATOR_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/failure.h"
#include "common/stats.h"
#include "core/allocator.h"
#include "core/config.h"
#include "core/size_classes.h"
#include "core/superblock.h"
#include "os/page_provider.h"
#include "policy/cost_kind.h"

namespace hoard {
namespace baselines {

/** Private heaps without ownership: frees stay with the freeing thread. */
template <typename Policy>
class PurePrivateAllocator final : public Allocator
{
  public:
    explicit PurePrivateAllocator(
        const Config& config = Config(),
        os::PageProvider& provider = os::default_page_provider())
        : config_(validated(config)),
          provider_(provider),
          classes_(config_,
                   Superblock::payload_bytes_for(config_.superblock_bytes))
    {
        heaps_.reserve(static_cast<std::size_t>(config_.heap_count));
        for (int i = 0; i < config_.heap_count; ++i)
            heaps_.push_back(std::make_unique<PrivateHeap>(
                static_cast<std::size_t>(classes_.count())));
    }

    ~PurePrivateAllocator() override
    {
        for (auto& heap : heaps_) {
            for (Superblock* sb : heap->superblocks) {
                std::size_t bytes = sb->span_bytes();
                sb->~Superblock();
                provider_.unmap(sb, bytes);
            }
        }
    }

    PurePrivateAllocator(const PurePrivateAllocator&) = delete;
    PurePrivateAllocator& operator=(const PurePrivateAllocator&) = delete;

    void*
    allocate(std::size_t size) override
    {
        Policy::work(CostKind::malloc_base);
        int cls = classes_.class_for(size);
        if (cls == SizeClasses::kHuge)
            return allocate_huge(size);
        const std::size_t block_bytes = classes_.block_size(cls);

        PrivateHeap& heap = my_heap();
        std::lock_guard<typename Policy::Mutex> guard(heap.mutex);

        void* block;
        auto ci = static_cast<std::size_t>(cls);
        if (heap.free_lists[ci] != nullptr) {
            // Reuse whatever this thread freed, wherever it came from —
            // the source of passive false sharing in this design.
            block = heap.free_lists[ci];
            Policy::touch(block, sizeof(void*), false);
            heap.free_lists[ci] = *static_cast<void**>(block);
        } else {
            Superblock* sb = heap.bump_source[ci];
            if (sb == nullptr || sb->full()) {
                sb = fresh_superblock(cls, heap);
                if (sb == nullptr)
                    return nullptr;
                heap.bump_source[ci] = sb;
            }
            Policy::touch(sb, sizeof(Superblock), true);
            block = sb->allocate();
        }

        stats_.allocs.add();
        stats_.in_use_bytes.add(block_bytes);
        return block;
    }

    void
    deallocate(void* p) override
    {
        if (p == nullptr)
            return;
        Policy::work(CostKind::free_base);
        Superblock* sb =
            Superblock::from_pointer(p, config_.superblock_bytes);
        if (sb->huge()) {
            deallocate_huge(sb);
            return;
        }

        // Push onto *my* free list; the carving superblock is not
        // consulted and its counters are never decremented.
        PrivateHeap& heap = my_heap();
        std::lock_guard<typename Policy::Mutex> guard(heap.mutex);
        auto ci = static_cast<std::size_t>(sb->size_class());
        Policy::touch(p, sizeof(void*), true);
        *static_cast<void**>(p) = heap.free_lists[ci];
        heap.free_lists[ci] = p;

        stats_.frees.add();
        stats_.in_use_bytes.sub(sb->block_bytes());
    }

    std::size_t
    usable_size(const void* p) const override
    {
        const Superblock* sb =
            Superblock::from_pointer(p, config_.superblock_bytes);
        return sb->huge() ? sb->huge_user_bytes() : sb->block_bytes();
    }

    const detail::AllocatorStats& stats() const override { return stats_; }
    const char* name() const override { return "private"; }

  private:
    struct PrivateHeap
    {
        explicit PrivateHeap(std::size_t num_classes)
            : free_lists(num_classes, nullptr),
              bump_source(num_classes, nullptr)
        {}

        typename Policy::Mutex mutex;
        std::vector<void*> free_lists;        ///< per class, LIFO
        std::vector<Superblock*> bump_source; ///< per class, current carve
        std::vector<Superblock*> superblocks; ///< everything ever mapped
    };

    static const Config&
    validated(const Config& config)
    {
        config.validate();
        return config;
    }

    PrivateHeap&
    my_heap()
    {
        int idx = Policy::thread_index() % config_.heap_count;
        return *heaps_[static_cast<std::size_t>(idx)];
    }

    Superblock*
    fresh_superblock(int cls, PrivateHeap& heap)
    {
        Policy::work(CostKind::os_map);
        Policy::work(CostKind::superblock_init);
        void* memory = provider_.map(config_.superblock_bytes,
                                     config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        Superblock* sb = Superblock::create(
            memory, config_.superblock_bytes, cls,
            static_cast<std::uint32_t>(classes_.block_size(cls)));
        sb->set_owner(&heap);
        heap.superblocks.push_back(sb);
        stats_.superblock_allocs.add();
        stats_.committed_bytes.add(config_.superblock_bytes);
        stats_.held_bytes.add(config_.superblock_bytes);
        return sb;
    }

    void*
    allocate_huge(std::size_t size)
    {
        Policy::work(CostKind::os_map);
        std::size_t offset = Superblock::header_bytes();
        if (size > std::numeric_limits<std::size_t>::max() - offset)
            return nullptr;  // span would overflow; report OOM
        std::size_t total = offset + size;
        void* memory = provider_.map(total, config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        Superblock::create_huge(memory, total, offset, size);
        stats_.allocs.add();
        stats_.huge_allocs.add();
        stats_.in_use_bytes.add(size);
        stats_.held_bytes.add(total);
        stats_.committed_bytes.add(total);
        return static_cast<char*>(memory) + offset;
    }

    void
    deallocate_huge(Superblock* sb)
    {
        Policy::work(CostKind::os_map);
        std::size_t total = sb->span_bytes();
        stats_.frees.add();
        stats_.in_use_bytes.sub(sb->huge_user_bytes());
        stats_.held_bytes.sub(total);
        stats_.committed_bytes.sub(total);
        sb->~Superblock();
        provider_.unmap(sb, total);
    }

    const Config config_;
    os::PageProvider& provider_;
    SizeClasses classes_;
    std::vector<std::unique_ptr<PrivateHeap>> heaps_;
    detail::AllocatorStats stats_;
};

}  // namespace baselines
}  // namespace hoard

#endif  // HOARD_BASELINES_PURE_PRIVATE_ALLOCATOR_H_
