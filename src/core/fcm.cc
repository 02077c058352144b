#include "core/fcm.hh"

#include <algorithm>
#include <stdexcept>

namespace vp::core {

std::string
fcmVariantName(const FcmConfig &config)
{
    std::string s = "fcm";
    s += std::to_string(config.order);
    if (config.blending == FcmBlending::None)
        s += "-pure";
    else if (config.blending == FcmBlending::Full)
        s += "-full";
    else if (config.counterMax != 0)
        s += "-sat";
    return s;
}

FcmPredictor::FcmPredictor(FcmConfig config) : config_(config)
{
    if (config_.order < 0)
        throw std::invalid_argument("fcm order must be non-negative");
}

void
FcmFollowers::bump(uint64_t value, uint64_t seq, uint32_t counter_max,
                   uint32_t max_followers)
{
    for (auto &cell : cells) {
        if (cell.value == value) {
            ++cell.count;
            cell.seq = seq;
            // Halve when a count would exceed (not reach) the
            // ceiling: counts can then saturate at counter_max
            // exactly, as a counter_max-wide hardware counter would,
            // and the just-bumped cell (now >= 2) always survives
            // the pruning — even with counter_max == 1.
            if (counter_max != 0 && cell.count > counter_max) {
                // Text-compression style rescaling: halve everything,
                // weighting recent behaviour more heavily.
                for (auto &c : cells)
                    c.count /= 2;
                cells.eraseIf(
                        [](const Cell &c) { return c.count == 0; });
            }
            return;
        }
    }
    if (max_followers != 0 && cells.size() >= max_followers) {
        // Follower list is at its capacity budget: replace the
        // weakest cell (lowest count, ties to the least recent).
        auto victim = cells.begin();
        for (auto it = cells.begin() + 1; it != cells.end(); ++it) {
            if (it->count < victim->count ||
                (it->count == victim->count && it->seq < victim->seq)) {
                victim = it;
            }
        }
        *victim = Cell{value, 1, seq};
        return;
    }
    cells.push_back(Cell{value, 1, seq});
}

const FcmFollowers::Cell *
FcmFollowers::best() const
{
    const Cell *best = nullptr;
    for (const auto &cell : cells) {
        if (best == nullptr || cell.count > best->count ||
            (cell.count == best->count && cell.seq > best->seq)) {
            best = &cell;
        }
    }
    return best;
}

std::span<const uint64_t>
FcmPredictor::contextKey(const PcState &state, int j)
{
    // Precondition: j <= state.history.size(), guaranteed by callers.
    return std::span<const uint64_t>(state.history)
            .last(static_cast<size_t>(j));
}

int
FcmPredictor::longestMatch(const PcState &state,
                           const FcmFollowers **followers) const
{
    const int max_order = std::min<int>(
            config_.order, static_cast<int>(state.history.size()));
    const int min_order =
            config_.blending == FcmBlending::None ? config_.order : 0;

    for (int j = max_order; j >= min_order; --j) {
        if (j >= static_cast<int>(state.tables.size()))
            continue;
        const auto &table = state.tables[j];
        auto it = table.find(contextKey(state, j));
        if (it != table.end() && !it->second.cells.empty()) {
            if (followers != nullptr)
                *followers = &it->second;
            return j;
        }
    }
    return -1;
}

Prediction
FcmPredictor::predict(uint64_t pc) const
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return Prediction::none();
    const PcState &state = it->second;

    if (config_.blending == FcmBlending::None &&
        static_cast<int>(state.history.size()) < config_.order) {
        return Prediction::none();
    }

    const int match = longestMatch(state);
    if (match < 0)
        return Prediction::none();

    const auto it2 = state.tables[match].find(contextKey(state, match));
    const auto *best = it2->second.best();
    if (best == nullptr)
        return Prediction::none();
    return Prediction::of(best->value);
}

void
FcmPredictor::update(uint64_t pc, uint64_t actual)
{
    PcState &state = table_[pc];
    if (state.tables.empty())
        state.tables.resize(config_.order + 1);

    // Determine which orders to train. Lazy exclusion trains the
    // matched order and everything above it; full blending (and the
    // no-blending configuration) trains all orders it uses.
    int lowest = 0;
    switch (config_.blending) {
      case FcmBlending::None:
        lowest = config_.order;
        break;
      case FcmBlending::Full:
        lowest = 0;
        break;
      case FcmBlending::LazyExclusion: {
        const int match = longestMatch(state);
        lowest = match < 0 ? 0 : match;
        break;
      }
    }

    ++seq_;
    const int max_order = std::min<int>(
            config_.order, static_cast<int>(state.history.size()));
    for (int j = max_order; j >= lowest; --j) {
        auto &table = state.tables[j];
        const auto key = contextKey(state, j);
        auto it = table.find(key);
        if (it == table.end()) {
            it = table.emplace(std::vector<uint64_t>(key.begin(),
                                                     key.end()),
                               FcmFollowers{}).first;
        }
        it->second.bump(actual, seq_, config_.counterMax);
    }

    // Slide the history window.
    state.history.push_back(actual);
    if (static_cast<int>(state.history.size()) > config_.order)
        state.history.erase(state.history.begin());
}

void
FcmPredictor::trainBatch(const uint64_t *pcs, const uint64_t *values,
                         size_t n, uint64_t *valid, uint64_t *correct)
{
    for (size_t i = 0; i < n; ++i) {
        auto [pit, inserted] = table_.try_emplace(pcs[i]);
        PcState &state = pit->second;
        if (state.tables.empty())
            state.tables.resize(config_.order + 1);

        // A single context scan serves both the prediction and the
        // lazy-exclusion training floor: nothing mutates this PC's
        // state between the scalar predict() and update() scans, so
        // they always agree. On a fresh PC the scan trivially misses,
        // matching the scalar predict() table miss.
        const FcmFollowers *followers = nullptr;
        const int match = longestMatch(state, &followers);

        if (!inserted && match >= 0) {
            const auto *best = followers->best();
            if (best != nullptr) {
                bits::set(valid, i);
                if (best->value == values[i])
                    bits::set(correct, i);
            }
        }

        int lowest = 0;
        switch (config_.blending) {
          case FcmBlending::None:
            lowest = config_.order;
            break;
          case FcmBlending::Full:
            lowest = 0;
            break;
          case FcmBlending::LazyExclusion:
            lowest = match < 0 ? 0 : match;
            break;
        }

        ++seq_;
        const int max_order = std::min<int>(
                config_.order, static_cast<int>(state.history.size()));
        for (int j = max_order; j >= lowest; --j) {
            auto &table = state.tables[j];
            const auto key = contextKey(state, j);
            auto it = table.find(key);
            if (it == table.end()) {
                it = table.emplace(std::vector<uint64_t>(key.begin(),
                                                         key.end()),
                                   FcmFollowers{}).first;
            }
            it->second.bump(values[i], seq_, config_.counterMax);
        }

        state.history.push_back(values[i]);
        if (static_cast<int>(state.history.size()) > config_.order)
            state.history.erase(state.history.begin());
    }
}

std::string
FcmPredictor::name() const
{
    return fcmVariantName(config_);
}

void
FcmPredictor::reset()
{
    table_.clear();
    seq_ = 0;
}

size_t
FcmPredictor::tableEntries() const
{
    size_t n = 0;
    for (const auto &[pc, state] : table_) {
        for (const auto &table : state.tables)
            n += table.size();
    }
    return n;
}

} // namespace vp::core
