/**
 * @file
 * Metrics registry: named counters, gauges and log2-bucketed
 * histograms, sharded per thread so concurrent producers feeding one
 * shared registry never touch an atomic or a lock on the increment
 * path.
 *
 * Design:
 *
 *  - A Registry owns a list of Shards. Each thread lazily acquires
 *    its own Shard on first use (Registry::local(), one mutex hit per
 *    thread per registry, then lock-free) and increments plain
 *    uint64_t slots from then on.
 *  - snapshot() merges every shard into a Snapshot: counters and
 *    histograms sum, gauges keep the maximum (high-water semantics —
 *    the only merge that is deterministic under concurrent setters).
 *    Totals are exact provided every producer has finished (joined or
 *    otherwise synchronised) before the snapshot, which is how the
 *    cell scheduler uses it: a cell's registry is snapshot only after
 *    the promise fulfilling the cell has been set. obs_test pins the
 *    exactness under 1..8 worker threads.
 *  - Metric names are dotted paths ("fcm.vpt.evictions"); producers
 *    that emit the same name accumulate into one logical metric.
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
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hh"

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

    /** Sum counters/histograms, max gauges — same rules as shards. */
    void
    merge(const Snapshot &other)
    {
        for (const auto &[name, value] : other.counters)
            counters[name] += value;
        for (const auto &[name, value] : other.gauges) {
            auto [it, fresh] = gauges.try_emplace(name, value);
            if (!fresh && value > it->second)
                it->second = value;
        }
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

/**
 * Thread-sharded metrics registry. See the file comment for the
 * threading contract; all name-keyed lookups happen on the producer's
 * own shard, so they are unsynchronised and allocation-light (each
 * shard touches only the names its thread emits).
 */
class Registry
{
  public:
    /** One thread's private slice of the registry. */
    class Shard
    {
      public:
        void
        add(const std::string &name, uint64_t delta)
        {
            counters_[name] += delta;
        }

        /** High-water gauge: keeps the largest value set. */
        void
        gauge(const std::string &name, uint64_t value)
        {
            auto [it, fresh] = gauges_.try_emplace(name, value);
            if (!fresh && value > it->second)
                it->second = value;
        }

        void
        record(const std::string &name, uint64_t value)
        {
            histograms_[name].record(value);
        }

        void
        record(const std::string &name, uint64_t value, uint64_t weight)
        {
            histograms_[name].record(value, weight);
        }

      private:
        friend class Registry;
        std::map<std::string, uint64_t> counters_;
        std::map<std::string, uint64_t> gauges_;
        std::map<std::string, Histogram> histograms_;
    };

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * The calling thread's shard of this registry, created on first
     * use. The returned reference stays valid for the registry's
     * lifetime; only the creating thread may mutate it.
     */
    Shard &local();

    /** Convenience forwarding to local(). */
    void add(const std::string &name, uint64_t delta = 1)
    {
        local().add(name, delta);
    }

    void gauge(const std::string &name, uint64_t value)
    {
        local().gauge(name, value);
    }

    void record(const std::string &name, uint64_t value)
    {
        local().record(name, value);
    }

    void record(const std::string &name, uint64_t value, uint64_t weight)
    {
        local().record(name, value, weight);
    }

    /**
     * Merge every shard into one Snapshot. The caller must have
     * synchronised with every producer thread first (joined it, or
     * ordered through a promise/mutex as the cell scheduler does) —
     * shard slots are deliberately unsynchronised, so a snapshot
     * racing an increment is undefined like any other data race.
     */
    Snapshot snapshot() const;

  private:
    /** Guards the shard *list*; shard slots stay thread-owned and
     *  deliberately unannotated (see the class comment). */
    mutable util::Mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_ VP_GUARDED_BY(mutex_);
    uint64_t id_ = nextId();        ///< process-unique (cache key)

    static uint64_t nextId();
};

} // namespace vp::obs

#endif // VP_OBS_REGISTRY_HH
