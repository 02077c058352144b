/**
 * @file
 * ShardedBankMap: multi-tenant predictor banks behind striped locks.
 *
 * One vpd server hosts one independent predictor bank per tenant,
 * sharded over a power-of-two number of stripes by a mixed hash of
 * the tenant id. Each stripe is a mutex plus a hash map of banks, so
 * concurrent clients serving *different* tenants contend only when
 * their tenants collide on a stripe — the map scales with stripes,
 * not with a global lock. A tenant's whole stream trains its one
 * bank, through the bank's one evaluation path (onBatch), which is
 * what makes server-side stats byte-identical to a serial replay for
 * every predictor family.
 *
 * Thread-safety contract (the BoundedTable audit): everything inside
 * a bank — BoundedTable probe/touch paths, recency ranks, the
 * mutable aliasedPeeks_/probe-depth telemetry counters, FCM history
 * slides, confidence counters — is deliberately unsynchronised and
 * mutates on *every* touch, including const-looking peeks. A bank
 * must therefore be confined to its stripe lock for reads and writes
 * alike; even PREDICT takes the stripe lock. The stripes never share
 * core state: predictors have no mutable statics (verified across
 * src/core/ — the deterministic "random" replacement is a per-table
 * counter, not a global RNG), so banks under different stripes are
 * fully independent. sharded_bank_test pins per-tenant byte-identity
 * against a serial single-bank replay under 1..8 concurrent client
 * threads, and the TSAN CI config re-runs it under ThreadSanitizer.
 *
 * The contract is compiler-enforced: stripe state carries
 * VP_GUARDED_BY(mutex) annotations and the bank accessor requires the
 * stripe capability, so a `-DVP_THREAD_SAFETY=ON` clang build proves
 * every touch — including the const-looking STATS snapshot walks —
 * happens under the right stripe lock (util/thread_annotations.hh).
 */

#ifndef VP_NET_SHARDED_BANK_HH
#define VP_NET_SHARDED_BANK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stats.hh"
#include "sim/driver.hh"
#include "util/mutex.hh"
#include "vm/trace.hh"

namespace vp::obs {
class Registry;
} // namespace vp::obs

namespace vp::net {

struct ShardedBankConfig
{
    /**
     * Predictor spec (exp::makePredictor grammar) built per bank. The
     * default is vpd's served spec: order-3 fcm with a 1024-entry VHT
     * and a 4096-entry 4-way VPT, so a bank's memory is bounded.
     */
    std::string spec = "fcm3@1024/4096x4";

    /** Lock stripes; rounded up to a power of two, min 1. */
    unsigned stripes = 64;
};

/** splitmix64 finalizer: the tenant-to-stripe mixer. */
constexpr uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class ShardedBankMap
{
  public:
    explicit ShardedBankMap(ShardedBankConfig config);

    /** Per-event outcome of the full evaluation protocol. */
    struct EventOutcome
    {
        bool predicted = false;
        bool correct = false;
    };

    /** Aggregate outcome of one batched frame. */
    struct BatchOutcome
    {
        uint64_t events = 0;
        uint64_t predicted = 0;
        uint64_t correct = 0;
    };

    /**
     * The full protocol (predict, grade, update) for one event of
     * @p tenant's stream: applyBatch() over a one-event span.
     */
    EventOutcome applyOne(uint64_t tenant, const vm::TraceEvent &event);

    /**
     * The protocol over a span of @p tenant's events, run by the
     * tenant's bank in sim::PredictorBank::onBatch: one virtual
     * evalBatch call per bank node per span, each running its
     * family's batch loop. The tenant's bank is built on its first
     * nonempty span.
     */
    BatchOutcome applyBatch(uint64_t tenant, vm::TraceSpan events);

    /**
     * Prediction query. Does not grade statistics, but (like the
     * protocol's predict half) may advance recency and confidence
     * state, so it takes the stripe lock like every other touch. A
     * tenant that has no bank yet gets Prediction::none() and still
     * has none after: a cold bank predicts nothing in any family.
     */
    core::Prediction predict(uint64_t tenant, uint64_t pc);

    /**
     * The statistics of @p tenant's bank, read under its stripe's
     * lock; nullopt when the tenant has never trained.
     */
    std::optional<core::PredictionStats>
    tenantStats(uint64_t tenant) const;

    /** Banks currently instantiated: one per tenant that trained. */
    size_t bankCount() const;

    /** Times a stripe lock was found contended (try_lock failed). */
    uint64_t lockContentions() const;

    unsigned stripes() const
    {
        return static_cast<unsigned>(stripes_.size());
    }

    const ShardedBankConfig &config() const { return config_; }

    /**
     * Pull shard.{banks,stripes,contentions} into @p registry for the
     * STATS snapshot.
     */
    void collect(obs::Registry &registry) const;

  private:
    struct Stripe
    {
        mutable util::Mutex mutex;
        /** Tenant id -> its bank, a single-member sim::PredictorBank. */
        std::unordered_map<uint64_t, sim::PredictorBank>
                banks VP_GUARDED_BY(mutex);
        uint64_t contentions VP_GUARDED_BY(mutex) = 0;
    };

    /** Index of the stripe holding @p tenant's bank. */
    size_t
    stripeOf(uint64_t tenant) const
    {
        return static_cast<size_t>(mix64(tenant) & stripeMask_);
    }

    /** Lock @p stripe, counting contention. Pair with an adopting
     *  util::MutexLock so release stays scoped:
     *  @code
     *    lockStripe(stripe);
     *    const util::MutexLock lock(stripe.mutex, std::adopt_lock);
     *  @endcode */
    static void lockStripe(Stripe &stripe) VP_ACQUIRE(stripe.mutex);

    ShardedBankConfig config_;
    std::vector<Stripe> stripes_;
    uint64_t stripeMask_ = 0;
};

} // namespace vp::net

#endif // VP_NET_SHARDED_BANK_HH
