// Additional core-list coverage: seek(), shared pools, payload lifetime
// accounting, cursor self-assignment, and non-trivial payload types.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"

namespace {

using namespace lfll;

template <typename T>
void append(valois_list<T>& list, T v) {
    typename valois_list<T>::cursor c(list);
    while (!c.at_end()) list.next(c);
    list.insert(c, std::move(v));
}

TEST(ListSeek, ResumesAfterGivenCell) {
    valois_list<int> list(32);
    for (int v : {1, 2, 3, 4}) append(list, v);
    valois_list<int>::cursor c(list);
    list.next(c);  // on 2
    auto* cell2 = c.target();
    valois_list<int>::cursor seeked;
    list.seek(seeked, cell2);
    EXPECT_EQ(*seeked, 3);  // position immediately after cell 2
}

TEST(ListSeek, FromDeletedCellLandsOnLiveSuffix) {
    valois_list<int> list(32);
    for (int v : {1, 2, 3}) append(list, v);
    valois_list<int>::cursor parked(list);
    list.next(parked);  // on 2, pins it
    {
        valois_list<int>::cursor deleter(list);
        list.next(deleter);
        ASSERT_TRUE(list.try_delete(deleter));  // delete 2
    }
    valois_list<int>::cursor c;
    list.seek(c, parked.target());  // seek from the deleted cell
    EXPECT_EQ(*c, 3);
}

TEST(ListSeek, FromLastCellIsEnd) {
    valois_list<int> list(32);
    append(list, 1);
    valois_list<int>::cursor c(list);
    valois_list<int>::cursor s;
    list.seek(s, c.target());
    EXPECT_TRUE(s.at_end());
}

TEST(SharedPool, TwoListsShareNodes) {
    node_pool<list_node<int>> pool(64);
    valois_list<int> a(pool);
    valois_list<int> b(pool);
    for (int v : {1, 2, 3}) append(a, v);
    for (int v : {7, 8}) append(b, v);
    EXPECT_EQ(a.size_slow(), 3u);
    EXPECT_EQ(b.size_slow(), 2u);
    auto r = audit_shared(pool, std::vector<valois_list<int>*>{&a, &b});
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.cells, 5u);
}

TEST(SharedPool, DestroyedListReturnsItsNodes) {
    node_pool<list_node<int>> pool(64);
    valois_list<int> keeper(pool);
    append(keeper, 42);
    const std::size_t free_before = pool.free_count();
    {
        valois_list<int> temp(pool);
        for (int v : {1, 2, 3, 4, 5}) append(temp, v);
        EXPECT_LT(pool.free_count(), free_before);
    }
    // temp's dummies, cells, and aux nodes all came home: exact restore.
    EXPECT_EQ(pool.free_count(), free_before);
    auto r = audit_shared(pool, std::vector<valois_list<int>*>{&keeper});
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(ListPayload, DestructorsBalancedThroughChurn) {
    static std::atomic<int> live{0};
    struct probe {
        int v;
        explicit probe(int x) : v(x) { live.fetch_add(1); }
        probe(const probe& o) : v(o.v) { live.fetch_add(1); }
        probe(probe&& o) noexcept : v(o.v) { live.fetch_add(1); }
        ~probe() { live.fetch_sub(1); }
    };
    live = 0;
    {
        valois_list<probe> list(16);
        typename valois_list<probe>::cursor c(list);
        for (int i = 0; i < 20; ++i) {
            list.first(c);
            list.insert(c, probe(i));
        }
        EXPECT_EQ(live.load(), 20);  // exactly one constructed copy per cell
        list.first(c);
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(list.try_delete(c));
            list.update(c);
        }
        c.reset();
        // Deleted cells were reclaimed (no cursors pin them): payloads
        // gone.
        EXPECT_EQ(live.load(), 10);
    }
    // The list destructor releases the whole chain through the normal
    // reclamation cascade, so every remaining payload is destroyed.
    EXPECT_EQ(live.load(), 0);
}

TEST(ListPayload, StringsSurviveChurn) {
    valois_list<std::string> list(16);
    valois_list<std::string>::cursor c(list);
    for (int i = 0; i < 30; ++i) {
        list.first(c);
        list.insert(c, std::string(100, static_cast<char>('a' + i % 26)));
    }
    list.first(c);
    int seen = 0;
    do {
        if (!c.at_end()) {
            EXPECT_EQ((*c).size(), 100u);
            ++seen;
        }
    } while (list.next(c));
    EXPECT_EQ(seen, 30);
}

TEST(Cursor, SelfAssignmentIsNoop) {
    valois_list<int> list(16);
    append(list, 1);
    valois_list<int>::cursor c(list);
    c = c;  // must not double-release
    EXPECT_EQ(*c, 1);
    c.reset();
    auto r = audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Cursor, DetachedCursorIsInert) {
    valois_list<int>::cursor c;
    EXPECT_FALSE(c.valid());
    c.reset();  // no list: must be safe
    valois_list<int>::cursor d(std::move(c));
    d.reset();
}

TEST(ListInsert, ConvenienceInsertLeavesValidCursor) {
    valois_list<int> list(16);
    valois_list<int>::cursor c(list);
    list.insert(c, 5);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(*c, 5);  // cursor revalidated onto the new cell
}

}  // namespace
