// Meta-tests: the audit itself must detect the corruptions it exists to
// catch. Every stress test's green depends on these checks having teeth,
// so we deliberately break structures and assert the audit fails with the
// right diagnosis.
#include <gtest/gtest.h>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"

namespace {

using namespace lfll;
using list_t = valois_list<int>;
using cursor_t = list_t::cursor;
using node_t = list_node<int>;

void fill(list_t& list, int n) {
    cursor_t c(list);
    for (int i = n; i >= 1; --i) {
        list.first(c);
        list.insert(c, i);
    }
}

TEST(Audit, CleanListPasses) {
    list_t list(32);
    fill(list, 5);
    auto r = audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.cells, 5u);
    EXPECT_EQ(r.aux_nodes, 6u);
}

TEST(Audit, DetectsInflatedRefcount) {
    list_t list(32);
    fill(list, 3);
    node_t* cell = list.head()->next.load()->next.load();  // first cell
    ASSERT_TRUE(cell->is_cell());
    refct_acquire(cell->refct);  // a reference nobody owns
    auto r = audit_list(list);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("refcount"), std::string::npos) << r.error;
    // Repair so teardown is clean.
    cell->refct.fetch_sub(refct_one);
}

TEST(Audit, DetectsMissingReference) {
    list_t list(32);
    fill(list, 3);
    node_t* cell = list.head()->next.load()->next.load();
    cell->refct.fetch_sub(refct_one);  // count lost
    auto r = audit_list(list);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("refcount"), std::string::npos) << r.error;
    refct_acquire(cell->refct);
}

TEST(Audit, DetectsClaimBitAtQuiescence) {
    list_t list(32);
    fill(list, 2);
    node_t* cell = list.head()->next.load()->next.load();
    cell->refct.fetch_add(refct_claim);
    auto r = audit_list(list);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("claim"), std::string::npos) << r.error;
    cell->refct.fetch_sub(refct_claim);
}

TEST(Audit, DetectsAdjacentAuxChain) {
    list_t list(32);
    fill(list, 2);
    // Splice a spare aux between the first aux and the first cell,
    // mimicking an unfinished TryDelete's residue.
    node_t* extra = list.pool().alloc();
    node_t* first_aux = list.head()->next.load();
    node_t* cell = first_aux->next.load();
    extra->next.store(cell, std::memory_order_relaxed);  // takes over the link's ref
    first_aux->next.store(extra, std::memory_order_relaxed);  // extra's alloc ref
    auto r = audit_list(list);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("auxiliary"), std::string::npos) << r.error;
    EXPECT_GE(r.aux_chains, 1u);
}

TEST(Audit, DetectsLeakedNode) {
    list_t list(32);
    fill(list, 1);
    node_t* lost = list.pool().alloc();
    lost->refct.store(0, std::memory_order_relaxed);  // nobody references it
    auto r = audit_list(list);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("leak"), std::string::npos) << r.error;
}

TEST(Audit, DetectsCellWithoutFlankingAux) {
    list_t list(32);
    fill(list, 2);
    // Bypass the aux between the two cells: cell1 -> cell2 directly.
    node_t* aux1 = list.head()->next.load();
    node_t* cell1 = aux1->next.load();
    node_t* aux2 = cell1->next.load();
    node_t* cell2 = aux2->next.load();
    ASSERT_TRUE(cell2->is_cell());
    node_t* old = cell1->next.exchange(list.pool().add_ref(cell2), std::memory_order_relaxed);
    auto r = audit_list(list);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("auxiliary"), std::string::npos) << r.error;
    // Restore for clean teardown.
    list.pool().release(cell1->next.exchange(old, std::memory_order_relaxed));
}

TEST(Audit, PinnedDeletedCellAccountedViaExternalRefs) {
    list_t list(32);
    fill(list, 2);
    cursor_t parked(list);
    {
        cursor_t deleter(list);
        ASSERT_TRUE(list.try_delete(deleter));
    }
    // Without declaring the cursor, the audit must flag the pinned nodes.
    auto bad = audit_list(list);
    EXPECT_FALSE(bad.ok);
    // With the cursor's references declared, it must pass. pre_aux is an
    // unreferenced hint (traversal fast path), and pre_cell (First) is
    // borrowed, so only the references the cursor holds are declared.
    std::map<const node_t*, std::size_t> ext;
    if (parked.holds_pre_cell()) ext[parked.pre_cell()]++;
    ext[parked.target()]++;
    auto good = audit_list(list, ext);
    EXPECT_TRUE(good.ok) << good.error;
}

}  // namespace
