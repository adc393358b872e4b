/**
 * @file
 * Symbolic cost events charged by the allocator through its execution
 * policy.  NativePolicy ignores them; SimPolicy maps each to the running
 * Machine's CostModel.  Keeping the mapping symbolic lets one allocator
 * body serve both builds without embedding cycle numbers.
 */

#ifndef HOARD_POLICY_COST_KIND_H_
#define HOARD_POLICY_COST_KIND_H_

namespace hoard {

/** Allocator-internal events with modeled costs. @see sim::CostModel */
enum class CostKind
{
    malloc_base,      ///< size-class lookup + fast-path bookkeeping
    free_base,        ///< superblock mask + fast-path bookkeeping
    list_op,          ///< one fullness-group probe or relink
    superblock_init,  ///< formatting a fresh/recycled superblock
    os_map,           ///< a page-provider round trip
    os_commit,        ///< committing (or reviving) a decommitted span
    os_purge,         ///< decommitting a span (madvise)
    transfer,         ///< moving a superblock between heaps
};

}  // namespace hoard

#endif  // HOARD_POLICY_COST_KIND_H_
