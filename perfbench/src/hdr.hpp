// Log-linear latency histogram: exact nanoseconds below 512 ns, then 256
// linear sub-buckets per octave, so a reported quantile is within 0.4%
// of the true sample. Every request is recorded (no reservoir). The
// quantile is the nearest-rank sample, placed inside its bucket by its
// rank among the bucket's samples, so it does not snap to bucket edges.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class hdr_hist {
public:
    hdr_hist() : counts_(kBuckets, 0) {}

    void record(std::uint64_t ns) noexcept {
        ++counts_[index(std::min(ns, kMaxValue))];
        ++n_;
        sum_ += ns;
    }

    void merge(const hdr_hist& o) {
        for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
        sum_ += o.sum_;
    }

    std::uint64_t count() const noexcept { return n_; }
    double mean() const noexcept {
        return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
    }

    /// Nearest-rank quantile in ns; 0 when empty.
    double quantile(double q) const noexcept {
        if (n_ == 0) return 0.0;
        const auto rank = static_cast<std::uint64_t>(
            std::max(1.0, std::ceil(q * static_cast<double>(n_))));
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            if (cum + counts_[i] >= rank) {
                const double within = (static_cast<double>(rank - cum) - 0.5) /
                                      static_cast<double>(counts_[i]);
                return lower(i) + within * static_cast<double>(width(i));
            }
            cum += counts_[i];
        }
        return lower(kBuckets - 1);
    }

private:
    static constexpr int kSubBits = 8;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    static constexpr std::uint64_t kLinear = kSub << 1;
    static constexpr int kOctaves = 33;  // up to ~2^41 ns (~36 min)
    static constexpr std::size_t kBuckets = kLinear + kOctaves * kSub;
    static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << (kSubBits + kOctaves + 1)) - 1;

    static std::size_t index(std::uint64_t v) noexcept {
        if (v < kLinear) return static_cast<std::size_t>(v);
        const int shift = std::bit_width(v) - (kSubBits + 1);
        return static_cast<std::size_t>(kLinear + static_cast<std::uint64_t>(shift - 1) * kSub +
                                        ((v >> shift) - kSub));
    }

    static int shift_of(std::size_t i) noexcept {
        return i < kLinear ? 0 : static_cast<int>((i - kLinear) / kSub) + 1;
    }
    static double lower(std::size_t i) noexcept {
        if (i < kLinear) return static_cast<double>(i);
        return static_cast<double>((kSub + (i - kLinear) % kSub) << shift_of(i));
    }
    static std::uint64_t width(std::size_t i) noexcept { return std::uint64_t{1} << shift_of(i); }

    std::vector<std::uint32_t> counts_;  // no run records 2^32 samples
    std::uint64_t n_ = 0;
    std::uint64_t sum_ = 0;
};

}  // namespace perfbench
