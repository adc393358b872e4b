/**
 * @file
 * Seed-deterministic differential fuzzer of the C allocation API
 * (malloc, calloc, realloc, reallocarray, aligned_alloc,
 * posix_memalign, memalign, valloc, pvalloc, malloc_usable_size,
 * free) against a shadow model.
 *
 * Each of kThreads threads runs its own seeded operation stream over a
 * private slot table.  Sizes cluster at the allocator's boundaries: the
 * small/huge cut at S/2, the edge of every medium span class (four per
 * octave from S/2 to 256 KiB, header included) and the span cache's
 * ceiling, plus random sizes in between.  The shadow model records each
 * live block's size, alignment and fill byte, and checks:
 *
 *  - contents: every byte still holds its fill when the block is
 *    freed, and realloc keeps the common prefix;
 *  - alignment: 16 bytes for malloc-family calls (8 below 16 bytes,
 *    where no object needs more), the requested alignment for the
 *    aligned calls, a page for valloc and pvalloc;
 *  - usable size: malloc_usable_size(p) >= the size asked for;
 *  - calloc zeroing: every byte of a calloc block reads zero, which
 *    catches recycled memory handed out dirty;
 *  - overflow: calloc and reallocarray refuse a product that wraps,
 *    and the block given to a failed reallocarray survives.
 *
 * Blocks also migrate between threads through a shared mailbox, so
 * frees land on threads other than the allocating one.
 *
 * The API is a template parameter: the in-process ctest passes the
 * facade (hoard_*), and the preload program the process's own C API,
 * which the LD_PRELOAD shim serves.
 */

#ifndef HOARD_TESTS_PRELOAD_API_FUZZ_H_
#define HOARD_TESTS_PRELOAD_API_FUZZ_H_

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace hoard {
namespace fuzz {

constexpr int kThreads = 4;
constexpr int kSlots = 24;
constexpr std::size_t kPage = 4096;
/// Span header the allocator puts in front of a huge object (one
/// superblock header: 128 bytes on LP64).
constexpr std::size_t kHeader = 128;
/// S/2 at the default S = 8 KiB, and the span cache's ceiling.
constexpr std::size_t kHalfS = 4096;
constexpr std::size_t kCeiling = std::size_t{256} << 10;

/** splitmix64: small, seedable, identical everywhere. */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** The boundary sizes: both sides of S/2, of every medium class edge
    (as a request, header excluded, and as a raw size) and of the
    ceiling. */
inline std::vector<std::size_t>
edge_sizes()
{
    std::vector<std::size_t> edges = {1, 16, 4031, 4032, 4033,
                                      kHalfS - kHeader, kHalfS,
                                      kHalfS + 1};
    for (std::size_t octave = kHalfS; octave < kCeiling; octave *= 2) {
        for (std::size_t step = 1; step <= 4; ++step) {
            const std::size_t edge = octave / 4 * (4 + step);
            for (std::size_t at : {edge - kHeader, edge}) {
                edges.push_back(at - 1);
                edges.push_back(at);
                edges.push_back(at + 1);
            }
        }
    }
    edges.push_back(kCeiling + kPage);
    edges.push_back(std::size_t{1} << 20);
    return edges;
}

/** One live block in the shadow model. */
struct Block
{
    unsigned char* p = nullptr;
    std::size_t n = 0;
    unsigned char fill = 0;
};

/** Failures, with the first few printed. */
struct Report
{
    std::atomic<int> failures{0};

    void
    fail(const char* what, std::size_t n)
    {
        if (failures.fetch_add(1) < 10)
            std::fprintf(stderr, "api_fuzz: %s (size %zu)\n", what, n);
    }
};

template <class Api>
class Fuzzer
{
  public:
    Fuzzer(std::uint64_t seed, int rounds) : seed_(seed), rounds_(rounds) {}

    /** Runs kThreads streams to completion; returns the failures. */
    int
    run()
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([this, t] { stream(t); });
        for (std::thread& th : threads)
            th.join();
        for (Block& b : mailbox_)
            release(b);
        mailbox_.clear();
        return report_.failures.load();
    }

  private:
    std::size_t
    draw_size(Stream& rng)
    {
        if (rng.below(2) == 0)
            return edges_[rng.below(edges_.size())];
        const std::size_t octave = std::size_t{16} << rng.below(15);
        return octave + rng.below(octave);
    }

    void
    fill(Block& b, Stream& rng)
    {
        b.fill = static_cast<unsigned char>(1 + rng.below(255));
        std::memset(b.p, b.fill, b.n);
    }

    /** First @p n bytes of @p b all hold its fill. */
    bool
    intact(const Block& b, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i)
            if (b.p[i] != b.fill)
                return false;
        return true;
    }

    /** Fundamental alignment for @p n bytes: 16, or 8 below 16. */
    static std::size_t
    natural(std::size_t n)
    {
        return n < 16 ? 8 : 16;
    }

    void
    check_new(const Block& b, std::size_t align, const char* call)
    {
        if (b.p == nullptr) {
            report_.fail(call, b.n);
            return;
        }
        if (reinterpret_cast<std::uintptr_t>(b.p) % align != 0)
            report_.fail("misaligned block", b.n);
        if (Api::usable_size(b.p) < b.n)
            report_.fail("usable size below the request", b.n);
    }

    void
    release(Block& b)
    {
        if (b.p == nullptr)
            return;
        if (!intact(b, b.n))
            report_.fail("contents changed before free", b.n);
        Api::free(b.p);
        b.p = nullptr;
    }

    /** Allocates into empty @p b through one of the seven calls. */
    void
    allocate(Block& b, Stream& rng)
    {
        b.n = draw_size(rng);
        const std::size_t aligns[] = {16, 32, 64, 256, 1024, 4096};
        const std::size_t align = aligns[rng.below(6)];
        switch (rng.below(7)) {
        case 0:
            b.p = static_cast<unsigned char*>(Api::malloc(b.n));
            check_new(b, natural(b.n), "malloc failed");
            break;
        case 1: {
            b.p = static_cast<unsigned char*>(Api::calloc(1, b.n));
            check_new(b, natural(b.n), "calloc failed");
            if (b.p != nullptr) {
                b.fill = 0;
                if (!intact(b, b.n))
                    report_.fail("calloc block not zeroed", b.n);
            }
            break;
        }
        case 2:
            b.n = (b.n + align - 1) / align * align;
            b.p = static_cast<unsigned char*>(Api::aligned_alloc(align, b.n));
            check_new(b, align, "aligned_alloc failed");
            break;
        case 3: {
            void* out = nullptr;
            if (Api::posix_memalign(&out, align, b.n) != 0)
                out = nullptr;
            b.p = static_cast<unsigned char*>(out);
            check_new(b, align, "posix_memalign failed");
            break;
        }
        case 4:
            b.p = static_cast<unsigned char*>(Api::memalign(align, b.n));
            check_new(b, align, "memalign failed");
            break;
        case 5:
            b.p = static_cast<unsigned char*>(Api::valloc(b.n));
            check_new(b, kPage, "valloc failed");
            break;
        default:
            b.p = static_cast<unsigned char*>(Api::pvalloc(b.n));
            b.n = (b.n + kPage - 1) / kPage * kPage;
            check_new(b, kPage, "pvalloc failed");
            break;
        }
        if (b.p != nullptr)
            fill(b, rng);
    }

    /** realloc or reallocarray of live @p b to a new size. */
    void
    resize(Block& b, Stream& rng)
    {
        const std::size_t n = draw_size(rng);
        void* q;
        if (rng.below(2) == 0) {
            q = Api::realloc(b.p, n);
        } else {
            // Every draw_size result is a multiple of 1; split it as
            // count * size where both are whole.
            const std::size_t size = n % 4 == 0 ? 4 : 1;
            q = Api::reallocarray(b.p, n / size, size);
        }
        if (q == nullptr) {
            report_.fail("realloc failed", n);
            return;
        }
        b.p = static_cast<unsigned char*>(q);
        if (!intact(b, n < b.n ? n : b.n))
            report_.fail("realloc lost the common prefix", n);
        b.n = n;
        if (reinterpret_cast<std::uintptr_t>(b.p) % natural(n) != 0)
            report_.fail("misaligned realloc", n);
        if (Api::usable_size(b.p) < b.n)
            report_.fail("usable size below the realloc request", n);
        fill(b, rng);
    }

    /** calloc and reallocarray must refuse a wrapping product. */
    void
    overflow(Block& b)
    {
        const std::size_t half = ~std::size_t{0} / 2 + 1;
        errno = 0;
        if (Api::calloc(half, 4) != nullptr || errno != ENOMEM)
            report_.fail("calloc overflow accepted", 0);
        if (b.p == nullptr)
            return;
        errno = 0;
        if (Api::reallocarray(b.p, half, 4) != nullptr || errno != ENOMEM)
            report_.fail("reallocarray overflow accepted", b.n);
        if (!intact(b, b.n))
            report_.fail("failed reallocarray disturbed the block", b.n);
    }

    void
    stream(int t)
    {
        Stream rng(seed_ * 0x9e3779b97f4a7c15ull +
                   static_cast<std::uint64_t>(t));
        std::vector<Block> slots(kSlots);
        for (int i = 0; i < rounds_; ++i) {
            Block& b = slots[rng.below(kSlots)];
            const std::size_t op = rng.below(16);
            if (b.p == nullptr) {
                allocate(b, rng);
            } else if (op < 6) {
                release(b);
            } else if (op < 11) {
                resize(b, rng);
            } else if (op < 13) {
                // Hand the block to whichever thread takes it next.
                std::lock_guard<std::mutex> guard(mailbox_mutex_);
                mailbox_.push_back(b);
                b.p = nullptr;
            } else if (op < 15) {
                Block theirs;
                {
                    std::lock_guard<std::mutex> guard(mailbox_mutex_);
                    if (!mailbox_.empty()) {
                        theirs = mailbox_.back();
                        mailbox_.pop_back();
                    }
                }
                release(theirs);
            } else {
                overflow(b);
                Api::free(nullptr);
            }
        }
        for (Block& b : slots)
            release(b);
    }

    const std::uint64_t seed_;
    const int rounds_;
    const std::vector<std::size_t> edges_ = edge_sizes();
    Report report_;
    std::mutex mailbox_mutex_;
    std::vector<Block> mailbox_;
};

}  // namespace fuzz
}  // namespace hoard

#endif  // HOARD_TESTS_PRELOAD_API_FUZZ_H_
