// Cursor semantics: validity, invalidation by structural change, copy/move
// reference accounting, and the paper's "cell persistence" guarantee —
// a cursor parked on a deleted cell keeps working (§2.2).
#include <gtest/gtest.h>

#include <map>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"

namespace {

using list_t = lfll::valois_list<int>;
using cursor_t = list_t::cursor;
using node_t = lfll::list_node<int>;

void fill(list_t& list, int lo, int hi) {  // inserts lo..hi in order
    cursor_t c(list);
    for (int i = hi; i >= lo; --i) {
        list.first(c);
        list.insert(c, i);
    }
}

/// Folds a cursor's references into an audit external-reference map.
/// pre_aux is an unreferenced hint (traversal fast path), and a borrowed
/// pre_cell (First, here) carries no reference either — not counted.
void count_refs(std::map<const node_t*, std::size_t>& m, const cursor_t& c) {
    if (c.holds_pre_cell()) m[c.pre_cell()]++;
    if (c.target() != nullptr) m[c.target()]++;
}

TEST(Cursor, FreshCursorIsValidAndAtFirstItem) {
    list_t list(8);
    fill(list, 1, 3);
    cursor_t c(list);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(*c, 1);
}

TEST(Cursor, EmptyListCursorVisitsEndPosition) {
    list_t list(8);
    cursor_t c(list);
    EXPECT_TRUE(c.valid());
    EXPECT_TRUE(c.at_end());
}

TEST(Cursor, InsertionAtCursorInvalidatesIt) {
    list_t list(8);
    fill(list, 1, 2);
    cursor_t c(list);
    node_t* q = list.make_cell(99);
    node_t* a = list.make_aux();
    ASSERT_TRUE(list.try_insert(c, q, a));
    EXPECT_FALSE(c.valid());  // pre_aux now points at q, not target
    list.update(c);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(*c, 99);  // update lands on the newly inserted cell
    list.release_node(q);
    list.release_node(a);
}

TEST(Cursor, ConcurrentShapeChangeElsewhereKeepsCursorUsable) {
    list_t list(8);
    fill(list, 1, 4);
    cursor_t mover(list);
    list.next(mover);  // on 2
    cursor_t deleter(list);
    ASSERT_TRUE(list.try_delete(deleter));  // delete 1 (before mover)
    // mover's neighbourhood did not change; it is still valid.
    EXPECT_TRUE(mover.valid());
    EXPECT_EQ(*mover, 2);
    ASSERT_TRUE(list.next(mover));
    EXPECT_EQ(*mover, 3);
}

TEST(Cursor, ParkedOnDeletedCellStillReadsValue) {
    list_t list(8);
    fill(list, 1, 3);
    cursor_t parked(list);
    list.next(parked);  // on 2
    cursor_t deleter(list);
    list.next(deleter);
    ASSERT_EQ(*deleter, 2);
    ASSERT_TRUE(list.try_delete(deleter));
    deleter.reset();
    // Cell persistence: the deleted cell's contents remain accessible.
    EXPECT_EQ(*parked, 2);
    EXPECT_TRUE(parked.target()->is_deleted());
}

TEST(Cursor, ParkedOnDeletedCellCanTraverseOn) {
    list_t list(8);
    fill(list, 1, 3);
    cursor_t parked(list);
    list.next(parked);  // on 2
    {
        cursor_t deleter(list);
        list.next(deleter);
        ASSERT_TRUE(list.try_delete(deleter));
    }
    // Traversal from the deleted cell reaches the live suffix.
    ASSERT_TRUE(list.next(parked));
    EXPECT_EQ(*parked, 3);
    ASSERT_TRUE(list.next(parked));
    EXPECT_TRUE(parked.at_end());
}

TEST(Cursor, UpdateFromDeletedTargetAdvancesToLiveCell) {
    list_t list(8);
    fill(list, 1, 3);
    cursor_t a(list);
    cursor_t b(list);
    ASSERT_TRUE(list.try_delete(a));  // both cursors targeted 1
    a.reset();
    EXPECT_FALSE(b.valid());
    list.update(b);
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(*b, 2);
}

TEST(Cursor, CopyHoldsIndependentReferences) {
    list_t list(8);
    fill(list, 1, 2);
    cursor_t a(list);
    cursor_t b = a;  // copy
    list.next(a);
    EXPECT_EQ(*a, 2);
    EXPECT_EQ(*b, 1);  // unaffected
    std::map<const node_t*, std::size_t> ext;
    count_refs(ext, a);
    count_refs(ext, b);
    auto r = lfll::audit_list(list, ext);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Cursor, CopyAssignReleasesOldReferences) {
    list_t list(8);
    fill(list, 1, 3);
    cursor_t a(list);
    cursor_t b(list);
    list.next(b);
    b = a;  // b's old refs must be released
    EXPECT_EQ(*b, 1);
    a.reset();
    b.reset();
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;  // refcount audit catches leaks
}

TEST(Cursor, MoveTransfersOwnership) {
    list_t list(8);
    fill(list, 1, 2);
    cursor_t a(list);
    cursor_t b = std::move(a);
    EXPECT_EQ(*b, 1);
    b.reset();
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Cursor, DestructionReleasesPinnedDeletedCell) {
    list_t list(8);
    fill(list, 1, 1);
    const std::size_t free_at_start = list.pool().free_count();
    {
        cursor_t parked(list);
        cursor_t deleter(list);
        ASSERT_TRUE(list.try_delete(deleter));
        deleter.reset();
        // parked still pins the deleted cell: it must not be on the free
        // list yet.
        EXPECT_LT(list.pool().free_count(), free_at_start + 2);
    }
    // All cursors gone: the deleted cell and its aux node are reclaimed.
    EXPECT_EQ(list.pool().free_count(), free_at_start + 2);
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Cursor, AuditSeesCursorReferences) {
    list_t list(8);
    fill(list, 1, 2);
    cursor_t c(list);
    std::map<const node_t*, std::size_t> ext;
    count_refs(ext, c);
    auto r = lfll::audit_list(list, ext);
    EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
