// Step taxonomy for the deterministic schedule-exploration harness.
//
// Every annotated synchronization-relevant instant in the library is a
// *typed* chaos point (testing_hooks::chaos_point(kind)). The kinds map
// onto the windows where the paper's correctness argument (§3, Figs.
// 2-3, 9-10) and the reclamation layers added since (policies, magazine
// depot) are schedule-sensitive — see DESIGN.md "Deterministic schedule
// exploration" for the mapping. This header is dependency-free on
// purpose: it is included unconditionally by test_hooks.hpp, which sits
// in every hot path, and must cost nothing in normal builds.
#pragma once

#include <cstdint>

namespace lfll::sched {

enum class step_kind : std::uint8_t {
    generic = 0,     ///< untyped legacy point
    cas,             ///< between a swing's speculation and its CAS (Figs. 9-10)
    safe_read,       ///< inside SafeRead's read/increment/revalidate window (Fig. 15)
    publish,         ///< between a hazard publish and its revalidation
    revalidate,      ///< cursor re-validation entry (Fig. 5 Update)
    back_link,       ///< between the unlink CAS and back_link publication (Fig. 10 line 6)
    release,         ///< before a Release's decrement (Fig. 16)
    alloc,           ///< inside Alloc, before committing a pop (Fig. 17)
    free_list,       ///< inside the free-list head's read/increment window (Fig. 18)
    magazine,        ///< around a magazine/depot exchange
    retire,          ///< before banking a dead node with a deferred policy
    drain,           ///< before a policy drain/scan boundary
    ref_transfer,    ///< inside the fast hop's elided-aux window (hint load -> validate)
    resize,          ///< inside a hash-table split window (directory grow,
                     ///< lazy dummy insert, bucket-slot publish)
    sample,          ///< inside the profiler's sampling/arming decision
    slow_capture,    ///< inside the slow-op ring's claim -> publish window
    batch_seek,      ///< inside the seek/lookup superhop: between a link load and
                     ///< the incarnation load of the node it names, between a
                     ///< payload copy and its per-cell re-check, before a read-only
                     ///< landing's sweep, and in the snapshot -> referenced-cursor
                     ///< handoff window (landing try_ref + incarnation sweep)
    version_publish, ///< between a structural win (link/mark CAS) and the
                     ///< publication of its version stamp or victim hand-off
    rq_validate,     ///< inside a range query's slot claim / activate / retire
                     ///< windows, where hand-off visibility is decided
    batch_drain,     ///< between sub-ops of a sorted multi-op batch (the
                     ///< cursor-resume handoff) and around a pipeline
                     ///< executor's ring drain / completion publish
};

inline constexpr int step_kind_count = 20;

constexpr const char* step_name(step_kind k) noexcept {
    switch (k) {
        case step_kind::generic:    return "generic";
        case step_kind::cas:        return "cas";
        case step_kind::safe_read:  return "safe_read";
        case step_kind::publish:    return "publish";
        case step_kind::revalidate: return "revalidate";
        case step_kind::back_link:  return "back_link";
        case step_kind::release:    return "release";
        case step_kind::alloc:      return "alloc";
        case step_kind::free_list:  return "free_list";
        case step_kind::magazine:   return "magazine";
        case step_kind::retire:     return "retire";
        case step_kind::drain:      return "drain";
        case step_kind::ref_transfer:     return "ref_transfer";
        case step_kind::resize:           return "resize";
        case step_kind::sample:           return "sample";
        case step_kind::slow_capture:     return "slow_capture";
        case step_kind::batch_seek:       return "batch_seek";
        case step_kind::version_publish:  return "version_publish";
        case step_kind::rq_validate:      return "rq_validate";
        case step_kind::batch_drain:      return "batch_drain";
    }
    return "?";
}

}  // namespace lfll::sched
