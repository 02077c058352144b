#include "core/fcm.hh"

#include <algorithm>
#include <bit>
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

namespace {

/** Home slot of @p value in an index of @p mask + 1 slots. */
uint32_t
homeSlot(uint64_t value, uint32_t mask)
{
    return static_cast<uint32_t>((value * 0x9e3779b97f4a7c15ull) >> 32) &
           mask;
}

} // anonymous namespace

uint32_t
IndexedFollowers::capacity() const
{
    return size_ <= 1 ? 1 : std::bit_ceil(size_);
}

uint32_t
IndexedFollowers::find(uint64_t value) const
{
    const Cell *c = cells();
    const uint32_t cap = capacity();
    if (cap <= kScanMax) {
        for (uint32_t i = 0; i < size_; ++i) {
            if (c[i].value == value)
                return i;
        }
        return UINT32_MAX;
    }
    const uint32_t *slot = slots(cap);
    const uint32_t mask = 2 * cap - 1;
    for (uint32_t s = homeSlot(value, mask);; s = (s + 1) & mask) {
        if (slot[s] == 0)
            return UINT32_MAX;
        if (c[slot[s] - 1].value == value)
            return slot[s] - 1;
    }
}

void
IndexedFollowers::index(uint32_t at, uint32_t cap)
{
    uint32_t *slot = slots(cap);
    const uint32_t mask = 2 * cap - 1;
    uint32_t s = homeSlot(heap_[at].value, mask);
    while (slot[s] != 0)
        s = (s + 1) & mask;
    slot[s] = at + 1;
}

void
IndexedFollowers::push(const Cell &cell)
{
    uint32_t cap = capacity();
    if (size_ == cap) {
        // Full: double into a new block, with an index behind the
        // cells once the list is too long to scan.
        cap *= 2;
        const size_t index_bytes =
                cap > kScanMax ? 2 * cap * sizeof(uint32_t) : 0;
        auto *block = static_cast<Cell *>(
                ::operator new(cap * sizeof(Cell) + index_bytes));
        std::copy(cells(), cells() + size_, block);
        ::operator delete(heap_);
        heap_ = block;
        if (cap > kScanMax) {
            std::fill_n(slots(cap), 2 * cap, 0u);
            for (uint32_t i = 0; i < size_; ++i)
                index(i, cap);
        }
    }
    cells()[size_] = cell;
    if (cap > kScanMax)
        index(size_, cap);
    ++size_;
}

void
IndexedFollowers::bump(uint64_t value, uint64_t seq, uint32_t counter_max)
{
    const uint32_t at = find(value);
    if (at == UINT32_MAX) {
        const bool becomes_best = size_ == 0 || cells()[best_].count <= 1;
        push(Cell{value, 1, seq});
        if (becomes_best)
            best_ = size_ - 1;
        return;
    }

    Cell *c = cells();
    Cell &cell = c[at];
    ++cell.count;
    cell.seq = seq;
    // Halve when a count would exceed (not reach) the ceiling, as
    // FcmFollowers::bump() does; zero-count cells stay in place (see
    // the class comment), so only the argmax needs a rescan.
    if (counter_max != 0 && cell.count > counter_max) {
        best_ = 0;
        for (uint32_t i = 0; i < size_; ++i) {
            c[i].count /= 2;
            if (c[i].count > c[best_].count ||
                (c[i].count == c[best_].count &&
                 c[i].seq > c[best_].seq)) {
                best_ = i;
            }
        }
    } else if (cell.count >= c[best_].count) {
        best_ = at;
    }
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
                           const IndexedFollowers **followers) const
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
        if (it != table.end() && !it->second.empty()) {
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

    const IndexedFollowers *followers = nullptr;
    if (longestMatch(state, &followers) < 0)
        return Prediction::none();
    const auto *best = followers->best();
    if (best == nullptr)
        return Prediction::none();
    return Prediction::of(best->value);
}

void
FcmPredictor::train(PcState &state, int lowest, uint64_t value)
{
    ++seq_;
    const int max_order = std::min<int>(
            config_.order, static_cast<int>(state.history.size()));
    for (int j = max_order; j >= lowest; --j) {
        auto &table = state.tables[j];
        const auto key = contextKey(state, j);
        auto it = table.find(key);
        if (it == table.end()) {
            it = table.try_emplace(std::vector<uint64_t>(key.begin(),
                                                         key.end()))
                         .first;
        }
        it->second.bump(value, seq_, config_.counterMax);
    }

    // Slide the history window.
    state.history.push_back(value);
    if (static_cast<int>(state.history.size()) > config_.order)
        state.history.erase(state.history.begin());
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
    train(state, lowest, actual);
}

void
FcmPredictor::evalBatch(const uint64_t *pcs, const uint64_t *values,
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
        const IndexedFollowers *followers = nullptr;
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
        train(state, lowest, values[i]);
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
