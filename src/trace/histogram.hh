#pragma once

/**
 * @file
 * Log-2 bucketed latency histograms.
 *
 * The paper's tables report per-category *averages*, but parallel
 * pathologies (a serialized collective, a hot directory) live in the
 * tail of the latency distribution. A LogHistogram keeps a full
 * distribution at fixed cost: bucket 0 holds the value 0 and bucket b
 * holds [2^(b-1), 2^b - 1], so one 64-bit value always lands in one of
 * 65 buckets via std::bit_width.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace wwt::trace
{

/** A power-of-two bucketed histogram of cycle durations. */
class LogHistogram
{
  public:
    /** Bucket 0 plus one bucket per possible bit width of uint64. */
    static constexpr std::size_t kBuckets = 65;

    /** Bucket index holding @p v: 0 for 0, else bit_width(v). */
    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Smallest value landing in bucket @p b. */
    static constexpr std::uint64_t
    bucketLo(std::size_t b)
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    /** Largest value landing in bucket @p b. */
    static constexpr std::uint64_t
    bucketHi(std::size_t b)
    {
        if (b == 0)
            return 0;
        if (b == kBuckets - 1)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

    void
    record(std::uint64_t v)
    {
        buckets_[bucketOf(v)]++;
        count_++;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    std::uint64_t bucketCount(std::size_t b) const { return buckets_[b]; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    /**
     * Fold @p o into this histogram. Buckets, counts and sums add;
     * min/max combine. Merging is commutative and associative, so
     * histograms merge to the same result in any order.
     */
    void
    merge(const LogHistogram& o)
    {
        for (std::size_t b = 0; b < kBuckets; ++b)
            buckets_[b] += o.buckets_[b];
        count_ += o.count_;
        sum_ += o.sum_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    /**
     * Approximate quantile: the upper bound of the bucket containing
     * the @p q-th sample, clamped to the observed max. @p q is clamped
     * to [0, 1]; NaN behaves like 0 (casting a negative or oversized
     * product to an unsigned rank would be undefined behaviour).
     * Deterministic: depends only on the recorded multiset.
     */
    std::uint64_t
    quantile(double q) const
    {
        if (count_ == 0)
            return 0;
        if (!(q > 0.0))
            q = 0.0; // negative and NaN both land here
        if (q > 1.0)
            q = 1.0;
        std::uint64_t rank = static_cast<std::uint64_t>(q * count_);
        if (rank >= count_)
            rank = count_ - 1;
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            seen += buckets_[b];
            if (seen > rank)
                return std::min(bucketHi(b), max());
        }
        return max();
    }

    /**
     * Like quantile(), but returns the *log-midpoint* of the bucket —
     * the geometric mean sqrt(lo * hi) of its inclusive bounds —
     * clamped to the observed [min, max]. quantile()'s upper bound
     * overstates tail latencies by up to 2x; the midpoint is the
     * unbiased point estimate under the log-uniform assumption, so
     * analytics (the desynchronization-wave detector's tail stats)
     * use this form. Deterministic: sqrt on exact inputs.
     */
    double
    quantileMidpoint(double q) const
    {
        if (count_ == 0)
            return 0.0;
        if (!(q > 0.0))
            q = 0.0;
        if (q > 1.0)
            q = 1.0;
        std::uint64_t rank = static_cast<std::uint64_t>(q * count_);
        if (rank >= count_)
            rank = count_ - 1;
        std::uint64_t seen = 0;
        std::size_t b = kBuckets - 1;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += buckets_[i];
            if (seen > rank) {
                b = i;
                break;
            }
        }
        if (b == 0)
            return 0.0;
        double mid = std::sqrt(static_cast<double>(bucketLo(b)) *
                               static_cast<double>(bucketHi(b)));
        return std::clamp(mid, static_cast<double>(min()),
                          static_cast<double>(max()));
    }

    /**
     * Rebuild a histogram from exported state (the metrics manifest's
     * "buckets" array plus sum/min/max) — the analyze reader's inverse
     * of the manifest writer. Bucket indices out of range are ignored.
     */
    static LogHistogram
    fromBuckets(
        const std::vector<std::pair<std::size_t, std::uint64_t>>& counts,
        std::uint64_t sum, std::uint64_t min_v, std::uint64_t max_v)
    {
        LogHistogram h;
        for (const auto& [b, n] : counts) {
            if (b >= kBuckets)
                continue;
            h.buckets_[b] += n;
            h.count_ += n;
        }
        h.sum_ = sum;
        if (h.count_ > 0) {
            h.min_ = min_v;
            h.max_ = max_v;
        }
        return h;
    }

  private:
    std::uint64_t buckets_[kBuckets]{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

} // namespace wwt::trace
