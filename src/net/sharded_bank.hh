/**
 * @file
 * ShardedBankMap: multi-tenant predictor banks behind striped locks.
 *
 * One vpd server hosts an independent predictor bank per (tenant,
 * pc-group) key, sharded over a power-of-two number of stripes by a
 * mixed hash of the key. Each stripe is a mutex plus a hash map of
 * banks, so concurrent clients serving *different* keys contend only
 * when their keys collide on a stripe — the map scales with stripes,
 * not with a global lock.
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
 *
 * pc-grouping: with pcGroupBits = 64 (the default) the group is
 * always 0 and a tenant's whole stream trains one bank, which is what
 * makes server-side stats byte-identical to a serial replay for every
 * predictor family. Smaller pcGroupBits split a tenant's PC space
 * into 2^(64-pcGroupBits)-page groups with an independent bank each —
 * more parallelism inside one hot tenant, still byte-identical for
 * per-PC families (l, s2: entries are independent per PC) but not for
 * fcm (the VPT is shared across PCs) or bounded tables (set aliasing
 * changes); sharded_bank_test covers both sides of that line.
 */

#ifndef VP_NET_SHARDED_BANK_HH
#define VP_NET_SHARDED_BANK_HH

#include <cstdint>
#include <memory>
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

    /**
     * PC bits that stay *within* one bank: group = pc >> pcGroupBits.
     * 64 (default) = one bank per tenant (byte-identity for every
     * family); smaller values split hot tenants across banks.
     */
    unsigned pcGroupBits = 64;
};

/** splitmix64 finalizer: the stripe/key mixer. */
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
     * Run the full protocol (predict, grade, update) for one event of
     * @p tenant's stream.
     */
    EventOutcome applyOne(uint64_t tenant, const vm::TraceEvent &event);

    /**
     * Batched protocol over a span of @p tenant's events, routed
     * through sim::PredictorBank::onBatch: one virtual evalBatch call
     * per bank node per batch, each running its family's batch loop.
     * Events are split into contiguous same-pc-group runs; with the
     * default pcGroupBits the whole span is one run.
     */
    BatchOutcome applyBatch(uint64_t tenant, vm::TraceSpan events);

    /**
     * Prediction query. Does not grade statistics, but (like the
     * protocol's predict half) may advance recency and confidence
     * state, so it takes the stripe lock like every other touch.
     */
    core::Prediction predict(uint64_t tenant, uint64_t pc);

    /**
     * The tenant's statistics summed over its pc-group banks;
     * nullopt when the tenant has never been seen.
     */
    std::optional<core::PredictionStats>
    tenantStats(uint64_t tenant) const;

    /** Banks currently instantiated (all tenants, all groups). */
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
    struct Key
    {
        uint64_t tenant = 0;
        uint64_t group = 0;

        friend bool operator==(const Key &, const Key &) = default;
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &key) const
        {
            return static_cast<size_t>(
                    mix64(key.tenant ^ mix64(key.group)));
        }
    };

    /**
     * One tenant-group bank: a single-member sim::PredictorBank so
     * the batched path is the very code batched_equivalence_test pins
     * byte-identical to the scalar protocol.
     */
    struct TenantBank
    {
        sim::PredictorBank bank;
    };

    struct Stripe
    {
        mutable util::Mutex mutex;
        std::unordered_map<Key, std::unique_ptr<TenantBank>, KeyHash>
                banks VP_GUARDED_BY(mutex);
        uint64_t contentions VP_GUARDED_BY(mutex) = 0;
    };

    uint64_t
    groupOf(uint64_t pc) const
    {
        return config_.pcGroupBits >= 64 ? 0
                                         : pc >> config_.pcGroupBits;
    }

    Stripe &
    stripeOf(const Key &key)
    {
        return stripes_[static_cast<size_t>(
                mix64(key.tenant ^ mix64(key.group)) & stripeMask_)];
    }

    /** Lock @p stripe, counting contention. Pair with an adopting
     *  util::MutexLock so release stays scoped:
     *  @code
     *    lockStripe(stripe);
     *    const util::MutexLock lock(stripe.mutex, std::adopt_lock);
     *  @endcode */
    static void lockStripe(Stripe &stripe) VP_ACQUIRE(stripe.mutex);

    /** The bank for @p key, created on first touch. */
    TenantBank &bankFor(Stripe &stripe, const Key &key)
            VP_REQUIRES(stripe.mutex);

    ShardedBankConfig config_;
    std::vector<Stripe> stripes_;
    uint64_t stripeMask_ = 0;
};

} // namespace vp::net

#endif // VP_NET_SHARDED_BANK_HH
