// Harris-Michael lock-free sorted list (Harris 2001 / Michael 2002).
//
// The modern descendant of the paper's list: no auxiliary nodes — a
// deletion first *marks* the victim's next pointer (logical delete), then
// any traversal physically unlinks marked nodes. It needs a reclamation
// scheme that tolerates reads of unlinked nodes, so it is templated over
// the domains in lfll/reclaim/ (hazard pointers by default).
//
// Role in this repo: ablation A1 (what do auxiliary nodes cost relative to
// marked pointers?) and A2 (reclaimer comparison on identical structure).
// It is deliberately a *set interface* dictionary like sorted_list_map so
// the two are drop-in comparable in benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>

#include "lfll/reclaim/hazard_pointers.hpp"
#include "lfll/telemetry/op_counters.hpp"

namespace lfll {

template <typename Key, typename Value, typename Domain = hazard_domain,
          typename Compare = std::less<Key>>
class harris_michael_list {
public:
    explicit harris_michael_list(Compare cmp = Compare{}) : cmp_(cmp) {}

    ~harris_michael_list() {
        // Quiescent teardown: free the chain, then whatever is parked in
        // the domain (its destructor handles that part).
        std::uintptr_t w = head_.load(std::memory_order_relaxed);
        while (ptr(w) != nullptr) {
            node* n = ptr(w);
            w = n->next.load(std::memory_order_relaxed);
            delete n;
        }
    }

    harris_michael_list(const harris_michael_list&) = delete;
    harris_michael_list& operator=(const harris_michael_list&) = delete;

    bool insert(const Key& key, Value value) {
        typename Domain::pin pin(domain_);
        node* fresh = nullptr;
        for (;;) {
            position pos;
            if (find(pin, key, pos)) {
                delete fresh;
                return false;
            }
            if (fresh == nullptr) fresh = new node{key, std::move(value), {}};
            fresh->next.store(reinterpret_cast<std::uintptr_t>(pos.cur),
                              std::memory_order_relaxed);
            std::uintptr_t expected = reinterpret_cast<std::uintptr_t>(pos.cur);
            instrument::tls().cas_attempts++;
            if (pos.prev->compare_exchange_strong(expected,
                                                  reinterpret_cast<std::uintptr_t>(fresh),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_acquire)) {
                return true;
            }
            instrument::tls().cas_failures++;
            instrument::tls().insert_retries++;
        }
    }

    bool erase(const Key& key) {
        typename Domain::pin pin(domain_);
        for (;;) {
            position pos;
            if (!find(pin, key, pos)) return false;
            const std::uintptr_t succ =
                pos.cur->next.load(std::memory_order_acquire);
            if (marked(succ)) continue;  // someone else is deleting it
            // Logical delete: set the mark on cur's next.
            std::uintptr_t expected = succ;
            instrument::tls().cas_attempts++;
            if (!pos.cur->next.compare_exchange_strong(expected, succ | kMark,
                                                       std::memory_order_seq_cst,
                                                       std::memory_order_acquire)) {
                instrument::tls().cas_failures++;
                instrument::tls().delete_retries++;
                continue;
            }
            // Physical unlink (best effort; find() cleans up otherwise).
            expected = reinterpret_cast<std::uintptr_t>(pos.cur);
            if (pos.prev->compare_exchange_strong(expected, succ,
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_acquire)) {
                pin.retire(pos.cur, &delete_node);
            } else {
                position dummy;
                find(pin, key, dummy);  // sweeps the marked node
            }
            return true;
        }
    }

    std::optional<Value> find(const Key& key) {
        typename Domain::pin pin(domain_);
        position pos;
        if (!find(pin, key, pos)) return std::nullopt;
        return pos.cur->value;  // cur is protected by the pin
    }

    bool contains(const Key& key) { return find(key).has_value(); }

    /// Quiescent-only element count.
    std::size_t size_slow() const {
        std::size_t n = 0;
        for (std::uintptr_t w = head_.load(std::memory_order_acquire); ptr(w) != nullptr;
             w = ptr(w)->next.load(std::memory_order_acquire)) {
            if (!marked(ptr(w)->next.load(std::memory_order_acquire))) ++n;
        }
        return n;
    }

    Domain& domain() noexcept { return domain_; }

private:
    struct node {
        Key key;
        Value value;
        std::atomic<std::uintptr_t> next{0};
    };

    static constexpr std::uintptr_t kMark = 1;

    static node* ptr(std::uintptr_t w) noexcept { return reinterpret_cast<node*>(w & ~kMark); }
    static bool marked(std::uintptr_t w) noexcept { return (w & kMark) != 0; }
    static void delete_node(void* p) { delete static_cast<node*>(p); }

    struct position {
        std::atomic<std::uintptr_t>* prev = nullptr;
        node* cur = nullptr;
    };

    /// Michael's Find: locates the first node with key >= `key`, unlinking
    /// marked nodes on the way. Hazard slots: parity-alternating {0,1} for
    /// cur/next, slot 2 for the node containing prev.
    bool find(typename Domain::pin& pin, const Key& key, position& pos) {
        auto& ctr = instrument::tls();
    retry:
        std::atomic<std::uintptr_t>* prev = &head_;
        pin.clear(2);  // prev is the head sentinel: nothing to protect
        int parity = 0;
        std::uintptr_t cur_w = pin.protect_raw(parity, *prev, kMark);
        for (;;) {
            node* cur = ptr(cur_w);
            if (cur == nullptr) {
                pos = {prev, nullptr};
                return false;
            }
            const std::uintptr_t next_w = pin.protect_raw(1 - parity, cur->next, kMark);
            // Revalidate: prev must still point at cur, unmarked. (If prev
            // is a node's next field, a set mark also fails this check.)
            if (prev->load(std::memory_order_acquire) !=
                reinterpret_cast<std::uintptr_t>(cur)) {
                ctr.saferead_retries++;
                goto retry;
            }
            if (marked(next_w)) {
                // cur is logically deleted: unlink it.
                std::uintptr_t expected = reinterpret_cast<std::uintptr_t>(cur);
                ctr.cas_attempts++;
                if (!prev->compare_exchange_strong(expected, next_w & ~kMark,
                                                   std::memory_order_seq_cst,
                                                   std::memory_order_acquire)) {
                    ctr.cas_failures++;
                    goto retry;
                }
                pin.retire(cur, &delete_node);
                cur_w = next_w & ~kMark;
                pin.set(parity, ptr(cur_w));  // already validated via slot 1-parity
            } else {
                ctr.cells_traversed++;
                if (!cmp_(cur->key, key)) {
                    pos = {prev, cur};
                    return !cmp_(key, cur->key);  // equal?
                }
                prev = &cur->next;
                pin.set(2, cur);  // cur becomes the prev node
                cur_w = next_w;
                parity = 1 - parity;  // next's hazard slot now guards cur
            }
        }
    }

    alignas(cacheline_size) std::atomic<std::uintptr_t> head_{0};
    Domain domain_;
    Compare cmp_;
};

}  // namespace lfll
