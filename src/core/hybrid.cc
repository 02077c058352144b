#include "core/hybrid.hh"

#include <algorithm>
#include <stdexcept>

#include "core/bounded.hh"

namespace vp::core {

HybridPredictor::HybridPredictor(HybridConfig config)
    : HybridPredictor(std::make_unique<StridePredictor>(config.stride),
                      std::make_unique<FcmPredictor>(config.fcm),
                      HybridChooser{config.chooserMax,
                                    config.chooserInit, std::nullopt})
{
}

HybridPredictor::HybridPredictor(SharedPredictor first,
                                 SharedPredictor second,
                                 HybridChooser chooser)
    : parts_{std::move(first), std::move(second)}, chooser_(chooser)
{
    if (parts_[0] == nullptr || parts_[1] == nullptr)
        throw std::invalid_argument("hybrid needs two components");
    if (chooser_.table)
        boundedChooser_.emplace(*chooser_.table);
}

int
HybridPredictor::counterFor(uint64_t pc) const
{
    if (boundedChooser_) {
        const ChooserEntry *entry = boundedChooser_->peek(pc);
        return entry == nullptr ? chooser_.init : entry->counter;
    }
    const auto it = mapChooser_.find(pc);
    return it == mapChooser_.end() ? chooser_.init : it->second;
}

Prediction
HybridPredictor::predict(uint64_t pc) const
{
    const Prediction from_second = parts_[1]->predict(pc);
    const Prediction from_first = parts_[0]->predict(pc);

    const bool prefer_second = counterFor(pc) >= 0;

    if (prefer_second && from_second.valid)
        return from_second;
    if (!prefer_second && from_first.valid)
        return from_first;
    // Preferred component declined; fall back to the other one.
    return prefer_second ? from_first : from_second;
}

void
HybridPredictor::update(uint64_t pc, uint64_t actual)
{
    const Prediction from_second = parts_[1]->predict(pc);
    const Prediction from_first = parts_[0]->predict(pc);
    const bool second_ok =
            from_second.valid && from_second.value == actual;
    const bool first_ok = from_first.valid && from_first.value == actual;

    int *counter = nullptr;
    if (boundedChooser_) {
        bool inserted = false;
        ChooserEntry &entry = boundedChooser_->touch(pc, inserted);
        if (inserted)
            entry.counter = chooser_.init;
        counter = &entry.counter;
    } else {
        counter = &mapChooser_.try_emplace(pc, chooser_.init)
                           .first->second;
    }

    ++choices_;
    const bool prefer_second = *counter >= 0;
    if (prefer_second)
        ++choseSecond_;

    // Train the chooser only when the components disagree in outcome.
    if (second_ok && !first_ok)
        *counter = std::min(*counter + 1, chooser_.max);
    else if (first_ok && !second_ok)
        *counter = std::max(*counter - 1, -chooser_.max - 1);

    chooserFlips_ += (*counter >= 0) != prefer_second;

    parts_[0]->update(pc, actual);
    parts_[1]->update(pc, actual);
}

std::span<const SharedPredictor>
HybridPredictor::components() const
{
    return parts_;
}

void
HybridPredictor::combineBatch(const uint64_t *pcs, size_t n,
                              const OutcomeRows *rows, uint64_t *valid,
                              uint64_t *correct)
{
    const uint64_t *first_valid = rows[0].valid;
    const uint64_t *first_correct = rows[0].correct;
    const uint64_t *second_valid = rows[1].valid;
    const uint64_t *second_correct = rows[1].correct;

    // The selection loop prefetches the chooser set a fixed distance
    // ahead of its probe — far enough to cover the miss, near enough
    // that the handful of in-flight lines never overflows the
    // hardware's fill queue (a whole-batch burst would drop most of
    // its prefetches).
    // The loop body is kept branch-free on everything derived from
    // the outcome bits: which component was right is close to random
    // per event, so training the counter or grading the choice behind
    // an `if` costs a mispredict every few events — more than the
    // whole arithmetic. Only the structural branches (bounded vs map
    // chooser, fresh insert) remain, and those predict perfectly.
    constexpr size_t kChooserAhead = 24;
    for (size_t i = 0; i < n; ++i) {
        if (boundedChooser_ && i + kChooserAhead < n)
            boundedChooser_->prefetch(pcs[i + kChooserAhead]);
        const bool second_ok = bits::test(second_correct, i);
        const bool first_ok = bits::test(first_correct, i);

        int *counter = nullptr;
        if (boundedChooser_) {
            bool inserted = false;
            ChooserEntry &entry = boundedChooser_->touch(pcs[i],
                                                         inserted);
            if (inserted)
                entry.counter = chooser_.init;
            counter = &entry.counter;
        } else {
            counter = &mapChooser_.try_emplace(pcs[i], chooser_.init)
                               .first->second;
        }

        const bool prefer_second = *counter >= 0;
        ++choices_;
        choseSecond_ += prefer_second;

        // Train the chooser only when the components disagree in
        // outcome: +1 / -1 / 0 collapses to a clamped delta.
        const int delta = static_cast<int>(second_ok) -
                          static_cast<int>(first_ok);
        *counter = std::clamp(*counter + delta, -chooser_.max - 1,
                              chooser_.max);
        chooserFlips_ += (*counter >= 0) != prefer_second;

        // The hybrid's own grade: the preferred component if it
        // predicted, else the fallback (mirrors predict()).
        const bool chose_second = prefer_second
                                          ? bits::test(second_valid, i)
                                          : !bits::test(first_valid, i);
        const bool sel_valid = bits::test(
                chose_second ? second_valid : first_valid, i);
        const bool sel_ok = chose_second ? second_ok : first_ok;
        const uint64_t bit = uint64_t{1} << (i % 64);
        valid[i / 64] |= sel_valid ? bit : 0;
        correct[i / 64] |= (sel_valid && sel_ok) ? bit : 0;
    }
}

std::string
HybridPredictor::name() const
{
    std::string s = "hyb(" + parts_[0]->name() + "+" + parts_[1]->name();
    if (chooser_.table)
        s += ";ch" + boundedSuffix(*chooser_.table);
    s += ")";
    return s;
}

void
HybridPredictor::reset()
{
    parts_[0]->reset();
    parts_[1]->reset();
    mapChooser_.clear();
    if (boundedChooser_)
        boundedChooser_->clear();
    choseSecond_ = 0;
    choices_ = 0;
    chooserFlips_ = 0;
}

size_t
HybridPredictor::chooserEntries() const
{
    return boundedChooser_ ? boundedChooser_->size()
                           : mapChooser_.size();
}

size_t
HybridPredictor::tableEntries() const
{
    return parts_[0]->tableEntries() + parts_[1]->tableEntries() +
           chooserEntries();
}

double
HybridPredictor::fcmChoiceFraction() const
{
    return choices_ ? static_cast<double>(choseSecond_) / choices_ : 0.0;
}

void
HybridPredictor::collectCounters(CounterSink &sink) const
{
    sink.counter("hybrid.chooser.choices", choices_);
    sink.counter("hybrid.chooser.chose_second", choseSecond_);
    sink.counter("hybrid.chooser.flips", chooserFlips_);
    sink.gauge("hybrid.chooser.entries", chooserEntries());
    if (boundedChooser_) {
        emitTableCounters(boundedChooser_->telemetry(),
                          "hybrid.chooser.", sink);
    }
    // Components report under their own family prefixes; two
    // same-family components accumulate into one metric (the sink's
    // documented same-name semantics).
    parts_[0]->collectCounters(sink);
    parts_[1]->collectCounters(sink);
}

} // namespace vp::core
