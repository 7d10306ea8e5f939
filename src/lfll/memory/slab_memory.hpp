// Backing memory for node_pool slabs.
//
// A slab below one huge page comes from the heap (aligned operator new),
// as it always has. A slab of at least one huge page (2 MiB) gets its own
// anonymous mapping whose start is 2 MiB-aligned, and the whole-huge-page
// prefix of that mapping is advised MADV_HUGEPAGE. The sub-2-MiB tail
// stays on base pages: advising it (or rounding the mapping up to a whole
// huge page) would let the kernel back bytes the pool never uses and
// inflate RSS.
//
// Why the size rule: a dependent hop through a large arena is a cache miss
// AND a TLB miss; on 4 KiB pages the arena overflows the STLB and every
// hop pays a page walk. Small slabs stay on the heap because a pool per
// hash bucket would otherwise cost one mapping per bucket and run into
// vm.max_map_count.
//
// Whether the advised range actually gets huge pages is the system's call
// (/sys/kernel/mm/transparent_hugepage/enabled); there is no library knob.
// A failed madvise is ignored: the slab simply runs on base pages. A
// failed allocation or mapping throws std::bad_alloc.
//
// The memory is released only by the destructor; node_pool destroys its
// slabs only in ~node_pool, so §5.1's "slabs are never returned while the
// pool lives" holds for both backings.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace lfll::detail {

class slab_memory {
public:
    static constexpr std::size_t huge_page = std::size_t{2} << 20;

    /// `bytes` of storage aligned to at least `align` (a power of two no
    /// larger than the base page).
    slab_memory(std::size_t bytes, std::size_t align) : bytes_(bytes), align_(align) {
        if (bytes < huge_page) {
            data_ = ::operator new(bytes, std::align_val_t{align});
        } else {
            map_huge();
        }
    }

    slab_memory(slab_memory&& o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          bytes_(o.bytes_),
          align_(o.align_),
          huge_bytes_(o.huge_bytes_) {}
    slab_memory& operator=(slab_memory&&) = delete;

    ~slab_memory() {
        if (data_ == nullptr) return;
        if (bytes_ < huge_page) {
            ::operator delete(data_, std::align_val_t{align_});
        } else {
            ::munmap(data_, page_rounded(bytes_));
        }
    }

    void* data() const noexcept { return data_; }
    /// Bytes successfully advised MADV_HUGEPAGE: the whole-2-MiB prefix,
    /// or 0 for a heap slab or a refused advice.
    std::size_t huge_bytes() const noexcept { return huge_bytes_; }

private:
    static std::size_t page_rounded(std::size_t bytes) noexcept {
        static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        return (bytes + page - 1) / page * page;
    }

    /// Over-maps by one huge page, trims the unaligned head and the slack
    /// past the last base page, and advises the whole-huge-page prefix.
    void map_huge() {
        const std::size_t len = page_rounded(bytes_);
        const std::size_t raw_len = len + huge_page;
        void* raw = ::mmap(nullptr, raw_len, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (raw == MAP_FAILED) throw std::bad_alloc();
        const auto raw_addr = reinterpret_cast<std::uintptr_t>(raw);
        const std::uintptr_t start = (raw_addr + huge_page - 1) & ~(huge_page - 1);
        const std::size_t head = start - raw_addr;
        if (head != 0) ::munmap(raw, head);
        const std::size_t tail = raw_len - head - len;
        if (tail != 0) ::munmap(reinterpret_cast<void*>(start + len), tail);
        data_ = reinterpret_cast<void*>(start);
#if defined(MADV_HUGEPAGE)
        const std::size_t prefix = bytes_ / huge_page * huge_page;
        if (::madvise(data_, prefix, MADV_HUGEPAGE) == 0) huge_bytes_ = prefix;
#endif
    }

    void* data_ = nullptr;
    std::size_t bytes_;
    std::size_t align_;
    std::size_t huge_bytes_ = 0;
};

}  // namespace lfll::detail
