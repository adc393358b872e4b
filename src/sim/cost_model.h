/**
 * @file
 * Cost model for the virtual-time multiprocessor.
 *
 * The paper evaluates on a 14-processor Sun Enterprise 5000; we do not
 * have that machine (or more than one CPU at all), so speedup figures are
 * regenerated on a simulated machine.  Costs are relative cycle counts,
 * chosen to respect the orderings that drive the paper's results:
 *
 *   cache hit  <<  cold miss  <  coherence transfer (remote dirty line)
 *   uncontended lock  <<  contended lock handoff
 *   allocator bookkeeping  <<  OS page mapping
 *
 * Absolute values are not calibrated to any real machine; only the shapes
 * of the resulting curves are claimed (see DESIGN.md §7).
 */

#ifndef HOARD_SIM_COST_MODEL_H_
#define HOARD_SIM_COST_MODEL_H_

#include <cstdint>

namespace hoard {
namespace sim {

/** Relative cycle costs charged by the simulator. */
struct CostModel
{
    std::uint64_t cache_hit = 1;        ///< line already local
    std::uint64_t cache_cold = 25;      ///< first touch of a line
    std::uint64_t cache_remote = 90;    ///< line last written by another proc
    std::uint64_t cache_shared_read = 8;///< read of a clean remote line

    std::uint64_t lock_base = 10;       ///< uncontended acquire or release
    std::uint64_t lock_handoff = 60;    ///< waking a waiter (lock line moves)
    std::uint64_t lock_waiter_overhead = 8;  ///< extra handoff cost per
                                             ///< additional spinner on the
                                             ///< lock line (invalidation
                                             ///< broadcast grows with P)

    std::uint64_t malloc_base = 30;     ///< size-class lookup + list pop
    std::uint64_t free_base = 25;       ///< mask + list push
    std::uint64_t list_op = 5;          ///< one fullness-group relink
    std::uint64_t superblock_init = 400;///< formatting a fresh superblock
    std::uint64_t os_map = 3000;        ///< mmap round trip
    std::uint64_t os_commit = 600;      ///< committing / reviving a span
                                        ///< (mprotect or zero-page refault)
    std::uint64_t os_purge = 900;       ///< decommitting a span (madvise)
    std::uint64_t transfer = 120;       ///< heap <-> global superblock move
};

}  // namespace sim
}  // namespace hoard

#endif  // HOARD_SIM_COST_MODEL_H_
