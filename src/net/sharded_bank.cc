#include "net/sharded_bank.hh"

#include <bit>
#include <mutex>         // std::adopt_lock

#include "exp/suite.hh"
#include "obs/registry.hh"

namespace vp::net {

ShardedBankMap::ShardedBankMap(ShardedBankConfig config)
    : config_(std::move(config))
{
    // Validate the spec once, eagerly — a bad spec should fail server
    // construction, not the first tenant's first frame.
    exp::makePredictor(config_.spec);

    const unsigned requested = config_.stripes == 0 ? 1 : config_.stripes;
    const size_t stripes = std::bit_ceil(static_cast<size_t>(requested));
    stripes_ = std::vector<Stripe>(stripes);
    stripeMask_ = stripes - 1;
}

void
ShardedBankMap::lockStripe(Stripe &stripe)
{
    if (stripe.mutex.try_lock())
        return;
    stripe.mutex.lock();
    ++stripe.contentions;   // now guarded by the mutex just taken
}

ShardedBankMap::EventOutcome
ShardedBankMap::applyOne(uint64_t tenant, const vm::TraceEvent &event)
{
    const auto outcome = applyBatch(tenant, vm::TraceSpan(&event, 1));
    return {outcome.predicted != 0, outcome.correct != 0};
}

ShardedBankMap::BatchOutcome
ShardedBankMap::applyBatch(uint64_t tenant, vm::TraceSpan events)
{
    if (events.empty())
        return {};          // trains nothing, so builds no bank
    Stripe &stripe = stripes_[stripeOf(tenant)];
    lockStripe(stripe);
    const util::MutexLock lock(stripe.mutex, std::adopt_lock);
    auto it = stripe.banks.find(tenant);
    if (it == stripe.banks.end()) {
        sim::PredictorBank bank;
        bank.add(exp::makePredictor(config_.spec));
        it = stripe.banks.emplace(tenant, std::move(bank)).first;
    }
    sim::PredictorBank &bank = it->second;

    const auto &stats = bank.member(0).stats;
    const uint64_t predicted0 = stats.predicted();
    const uint64_t correct0 = stats.correct();
    bank.onBatch(events);
    return {events.size(), stats.predicted() - predicted0,
            stats.correct() - correct0};
}

core::Prediction
ShardedBankMap::predict(uint64_t tenant, uint64_t pc)
{
    Stripe &stripe = stripes_[stripeOf(tenant)];
    lockStripe(stripe);
    const util::MutexLock lock(stripe.mutex, std::adopt_lock);
    const auto it = stripe.banks.find(tenant);
    if (it == stripe.banks.end())
        return core::Prediction::none();
    return it->second.member(0).predictor->predict(pc);
}

std::optional<core::PredictionStats>
ShardedBankMap::tenantStats(uint64_t tenant) const
{
    const Stripe &stripe = stripes_[stripeOf(tenant)];
    const util::MutexLock lock(stripe.mutex);
    const auto it = stripe.banks.find(tenant);
    if (it == stripe.banks.end())
        return std::nullopt;
    return it->second.member(0).stats;
}

size_t
ShardedBankMap::bankCount() const
{
    size_t n = 0;
    for (const Stripe &stripe : stripes_) {
        const util::MutexLock lock(stripe.mutex);
        n += stripe.banks.size();
    }
    return n;
}

uint64_t
ShardedBankMap::lockContentions() const
{
    uint64_t n = 0;
    for (const Stripe &stripe : stripes_) {
        const util::MutexLock lock(stripe.mutex);
        n += stripe.contentions;
    }
    return n;
}

void
ShardedBankMap::collect(obs::Registry &registry) const
{
    registry.add("shard.contentions", lockContentions());
    registry.gauge("shard.banks", bankCount());
    registry.gauge("shard.stripes", stripes());
}

} // namespace vp::net
