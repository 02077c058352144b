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

ShardedBankMap::TenantBank &
ShardedBankMap::bankFor(Stripe &stripe, const Key &key)
{
    auto it = stripe.banks.find(key);
    if (it == stripe.banks.end()) {
        auto bank = std::make_unique<TenantBank>();
        bank->bank.add(exp::makePredictor(config_.spec));
        it = stripe.banks.emplace(key, std::move(bank)).first;
    }
    return *it->second;
}

ShardedBankMap::EventOutcome
ShardedBankMap::applyOne(uint64_t tenant, const vm::TraceEvent &event)
{
    const Key key{tenant, groupOf(event.pc)};
    Stripe &stripe = stripeOf(key);
    lockStripe(stripe);
    const util::MutexLock lock(stripe.mutex, std::adopt_lock);
    TenantBank &tb = bankFor(stripe, key);

    // The per-event protocol on the tenant's single member (a serving
    // bank enables no trackers): predict, grade, update — the
    // reference the bank's batch path is pinned to
    // (batched_equivalence_test).
    auto &member = tb.bank.member(0);
    const auto pred = member.predictor->predict(event.pc);
    const bool correct = pred.valid && pred.value == event.value;
    member.stats.record(event.cat, pred.valid, correct);
    member.predictor->update(event.pc, event.value);
    return {pred.valid, correct};
}

ShardedBankMap::BatchOutcome
ShardedBankMap::applyBatch(uint64_t tenant, vm::TraceSpan events)
{
    BatchOutcome out;
    out.events = events.size();

    size_t i = 0;
    while (i < events.size()) {
        // Contiguous run sharing one pc-group (the whole span at the
        // default pcGroupBits = 64).
        size_t j = events.size();
        uint64_t group = 0;
        if (config_.pcGroupBits < 64) {
            group = groupOf(events[i].pc);
            j = i + 1;
            while (j < events.size() &&
                   groupOf(events[j].pc) == group) {
                ++j;
            }
        }

        const Key key{tenant, group};
        Stripe &stripe = stripeOf(key);
        lockStripe(stripe);
        const util::MutexLock lock(stripe.mutex, std::adopt_lock);
        TenantBank &tb = bankFor(stripe, key);

        const auto &stats = tb.bank.member(0).stats;
        const uint64_t predicted0 = stats.predicted();
        const uint64_t correct0 = stats.correct();
        tb.bank.onBatch(events.subspan(i, j - i));
        out.predicted += stats.predicted() - predicted0;
        out.correct += stats.correct() - correct0;
        i = j;
    }
    return out;
}

core::Prediction
ShardedBankMap::predict(uint64_t tenant, uint64_t pc)
{
    const Key key{tenant, groupOf(pc)};
    Stripe &stripe = stripeOf(key);
    lockStripe(stripe);
    const util::MutexLock lock(stripe.mutex, std::adopt_lock);
    TenantBank &tb = bankFor(stripe, key);
    return tb.bank.member(0).predictor->predict(pc);
}

std::optional<core::PredictionStats>
ShardedBankMap::tenantStats(uint64_t tenant) const
{
    core::PredictionStats merged;
    bool found = false;
    for (const Stripe &stripe : stripes_) {
        const util::MutexLock lock(stripe.mutex);
        for (const auto &[key, bank] : stripe.banks) {
            if (key.tenant != tenant)
                continue;
            merged.merge(bank->bank.member(0).stats);
            found = true;
        }
    }
    if (!found)
        return std::nullopt;
    return merged;
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
