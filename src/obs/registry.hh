/**
 * @file
 * Metrics registry: named counters, gauges and log2-bucketed
 * histograms.
 *
 * Single-owner contract: a Registry is fed and snapshot on one thread
 * (or under an external happens-before, such as a task handed to a
 * worker). It has no lock and no atomics; a snapshot racing an
 * increment is a data race like any other. Every registry in the tree
 * follows it:
 *
 *  - a cell's registry (exp::CellScheduler::CellObs) is fed by the
 *    cell's task and snapshot by that same task once runBenchmark has
 *    returned;
 *  - vpd's STATS registry (net::VpdServer::statsSnapshot) is a local
 *    of the thread answering STATS, which imports the server's atomic
 *    counters, calls ShardedBankMap::collect on it and snapshots it
 *    before returning.
 *
 * Merge rules (registry updates and Snapshot::merge alike): counters
 * and histograms sum, gauges keep the maximum (high-water semantics,
 * the one merge that is order-independent). Metric names are dotted
 * paths ("fcm.vpt.evictions"); producers that emit the same name
 * accumulate into one logical metric.
 *
 * Nothing here appears on the replay hot path: the predictors and
 * tables keep plain member counters (always on, a few adds per event
 * at most) and the harness pulls them into a Registry at cell
 * boundaries — see exp/suite.cc. The Instrumentation handle
 * (obs/instrumentation.hh) is the null-checked front door.
 */

#ifndef VP_OBS_REGISTRY_HH
#define VP_OBS_REGISTRY_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace vp::obs {

/**
 * Log2-bucketed histogram of uint64 samples.
 *
 * Bucket b counts samples whose bit width is b: bucket 0 holds the
 * value 0, bucket b >= 1 holds [2^(b-1), 2^b). UINT64_MAX lands in
 * bucket 64, so every representable value has a bucket and the
 * boundary cases (0, 1, UINT64_MAX) are distinguishable — obs_test
 * pins them.
 */
struct Histogram
{
    static constexpr int numBuckets = 65;

    std::array<uint64_t, numBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;      ///< UINT64_MAX when empty
    uint64_t max = 0;

    /** The bucket @p value falls into: its bit width. */
    static int
    bucketOf(uint64_t value)
    {
        int b = 0;
        while (value != 0) {
            ++b;
            value >>= 1;
        }
        return b;
    }

    /** Inclusive lower bound of bucket @p b (0, 1, 2, 4, 8, ...). */
    static uint64_t
    bucketLow(int b)
    {
        return b == 0 ? 0 : uint64_t{1} << (b - 1);
    }

    void
    record(uint64_t value)
    {
        ++buckets[static_cast<size_t>(bucketOf(value))];
        ++count;
        sum += value;
        if (value < min)
            min = value;
        if (value > max)
            max = value;
    }

    /**
     * Record @p value @p weight times in one shot — how precomputed
     * distributions (e.g. a table's per-depth probe counts) import
     * into the registry without replaying every sample.
     */
    void
    record(uint64_t value, uint64_t weight)
    {
        if (weight == 0)
            return;
        buckets[static_cast<size_t>(bucketOf(value))] += weight;
        count += weight;
        sum += value * weight;
        if (value < min)
            min = value;
        if (value > max)
            max = value;
    }

    void
    merge(const Histogram &other)
    {
        for (int b = 0; b < numBuckets; ++b)
            buckets[static_cast<size_t>(b)] +=
                    other.buckets[static_cast<size_t>(b)];
        count += other.count;
        sum += other.sum;
        if (other.min < min)
            min = other.min;
        if (other.max > max)
            max = other.max;
    }

    double
    mean() const
    {
        return count ? static_cast<double>(sum) /
                               static_cast<double>(count)
                     : 0.0;
    }
};

/** Merged view of a registry (or of several, via merge()). */
struct Snapshot
{
    std::map<std::string, uint64_t> counters;       ///< sums
    std::map<std::string, uint64_t> gauges;         ///< maxima
    std::map<std::string, Histogram> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    /** Keep the larger of the current and @p value (high water). */
    void
    raiseGauge(const std::string &name, uint64_t value)
    {
        auto [it, fresh] = gauges.try_emplace(name, value);
        if (!fresh && value > it->second)
            it->second = value;
    }

    /** Sum counters/histograms, max gauges — the registry's rules. */
    void
    merge(const Snapshot &other)
    {
        for (const auto &[name, value] : other.counters)
            counters[name] += value;
        for (const auto &[name, value] : other.gauges)
            raiseGauge(name, value);
        for (const auto &[name, hist] : other.histograms)
            histograms[name].merge(hist);
    }

    /** Counter value, 0 when absent (telemetry is optional by design). */
    uint64_t
    counter(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

/** Single-owner metrics registry; see the file comment. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    void
    add(const std::string &name, uint64_t delta = 1)
    {
        data_.counters[name] += delta;
    }

    /** High-water gauge: keeps the largest value set. */
    void
    gauge(const std::string &name, uint64_t value)
    {
        data_.raiseGauge(name, value);
    }

    void
    record(const std::string &name, uint64_t value)
    {
        data_.histograms[name].record(value);
    }

    void
    record(const std::string &name, uint64_t value, uint64_t weight)
    {
        data_.histograms[name].record(value, weight);
    }

    /** A copy of everything recorded so far. */
    Snapshot snapshot() const { return data_; }

  private:
    Snapshot data_;
};

} // namespace vp::obs

#endif // VP_OBS_REGISTRY_HH
