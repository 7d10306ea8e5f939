// Structural tests for the Valois list: the Fig. 4 empty shape, the Fig. 8
// insertion shape, alternation invariants, and audit coverage of the
// counted-link discipline after every kind of single-threaded mutation.
#include <gtest/gtest.h>

#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"

namespace {

using list_t = lfll::valois_list<int>;
using cursor_t = list_t::cursor;
using node_t = lfll::list_node<int>;

std::vector<int> contents(list_t& list) {
    std::vector<int> out;
    for (cursor_t c(list); !c.at_end(); list.next(c)) out.push_back(*c);
    return out;
}

TEST(ListStructure, EmptyListIsFigure4) {
    list_t list(8);
    node_t* head = list.head();
    node_t* aux = head->next.load();
    ASSERT_NE(aux, nullptr);
    EXPECT_TRUE(aux->is_aux());
    node_t* tail = aux->next.load();
    EXPECT_EQ(tail, list.tail());
    EXPECT_TRUE(tail->is_tail());
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(ListStructure, InsertProducesFigure8Shape) {
    list_t list(8);
    cursor_t c(list);
    list.insert(c, 42);
    // head -> aux -> cell(42) -> aux -> tail
    node_t* a1 = list.head()->next.load();
    ASSERT_TRUE(a1->is_aux());
    node_t* cell = a1->next.load();
    ASSERT_TRUE(cell->is_cell());
    EXPECT_EQ(cell->value(), 42);
    node_t* a2 = cell->next.load();
    ASSERT_TRUE(a2->is_aux());
    EXPECT_EQ(a2->next.load(), list.tail());
    c.reset();
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.cells, 1u);
    EXPECT_EQ(r.aux_nodes, 2u);
}

TEST(ListStructure, EveryCellFlankedByAuxAfterManyInserts) {
    list_t list(8);
    cursor_t c(list);
    for (int i = 0; i < 100; ++i) {
        list.first(c);
        list.insert(c, i);
    }
    c.reset();
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.cells, 100u);
    EXPECT_EQ(r.aux_nodes, 101u);  // one between every pair + both ends
}

TEST(ListStructure, InsertAtFrontIsLIFOOrder) {
    list_t list(8);
    cursor_t c(list);
    for (int i = 1; i <= 3; ++i) {
        list.first(c);
        list.insert(c, i);
    }
    EXPECT_EQ(contents(list), (std::vector<int>{3, 2, 1}));
}

TEST(ListStructure, InsertAtEndIsFIFOOrder) {
    list_t list(8);
    cursor_t c(list);
    for (int i = 1; i <= 3; ++i) {
        list.first(c);
        while (!c.at_end()) list.next(c);
        list.insert(c, i);
    }
    EXPECT_EQ(contents(list), (std::vector<int>{1, 2, 3}));
}

TEST(ListStructure, InteriorInsertion) {
    list_t list(8);
    cursor_t c(list);
    list.insert(c, 10);
    list.first(c);
    while (!c.at_end()) list.next(c);
    list.insert(c, 30);
    // Now insert 20 between them: position cursor on 30.
    list.first(c);
    list.next(c);
    ASSERT_EQ(*c, 30);
    list.insert(c, 20);
    EXPECT_EQ(contents(list), (std::vector<int>{10, 20, 30}));
    c.reset();
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(ListStructure, DeleteMiddleCompactsAuxNodes) {
    list_t list(8);
    cursor_t c(list);
    for (int i = 3; i >= 1; --i) {
        list.first(c);
        list.insert(c, i);
    }
    list.first(c);
    list.next(c);
    ASSERT_EQ(*c, 2);
    ASSERT_TRUE(list.try_delete(c));
    c.reset();
    EXPECT_EQ(contents(list), (std::vector<int>{1, 3}));
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;  // audit rejects adjacent aux pairs
    EXPECT_EQ(r.aux_chains, 0u);
}

TEST(ListStructure, DeleteAllForwardLeavesEmptyShape) {
    list_t list(8);
    cursor_t c(list);
    for (int i = 0; i < 50; ++i) {
        list.first(c);
        list.insert(c, i);
    }
    list.first(c);
    while (!c.at_end()) {
        ASSERT_TRUE(list.try_delete(c));
        list.update(c);
    }
    c.reset();
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.cells, 0u);
    EXPECT_EQ(r.aux_nodes, 1u);  // back to Fig. 4
}

TEST(ListStructure, DeletedNodesReturnToFreeList) {
    list_t list(64);
    const std::size_t free_before = list.pool().free_count();
    cursor_t c(list);
    for (int i = 0; i < 10; ++i) {
        list.first(c);
        list.insert(c, i);
    }
    list.first(c);
    while (!c.at_end()) {
        ASSERT_TRUE(list.try_delete(c));
        list.update(c);
    }
    c.reset();
    EXPECT_EQ(list.pool().free_count(), free_before);
}

TEST(ListStructure, PoolGrowsWhenExhausted) {
    list_t list(2);  // tiny pool: forces growth
    cursor_t c(list);
    for (int i = 0; i < 100; ++i) {
        list.first(c);
        list.insert(c, i);
    }
    c.reset();
    EXPECT_EQ(list.size_slow(), 100u);
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(ListStructure, TryDeleteOnEndPositionFails) {
    list_t list(8);
    cursor_t c(list);
    EXPECT_TRUE(c.at_end());
    EXPECT_FALSE(list.try_delete(c));
}

TEST(ListStructure, SizeSlowCountsCells) {
    list_t list(8);
    cursor_t c(list);
    EXPECT_EQ(list.size_slow(), 0u);
    list.insert(c, 1);
    list.first(c);
    list.insert(c, 2);
    EXPECT_EQ(list.size_slow(), 2u);
}

}  // namespace
