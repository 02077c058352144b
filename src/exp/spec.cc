#include "exp/spec.hh"

#include <cctype>
#include <stdexcept>

#include "core/bounded.hh"
#include "core/hybrid.hh"

namespace vp::exp {

// --------------------------------------------------------- geometry

core::BoundedTableConfig
TableGeometry::config() const
{
    core::BoundedTableConfig config;
    config.entries = entries;
    config.ways = ways;
    config.replacement = replacement;
    config.tagBits = tagBits;
    return config;
}

std::string
TableGeometry::canonicalSuffix() const
{
    return core::boundedSuffixTail(config());
}

std::string
TableGeometry::canonical() const
{
    return std::to_string(entries) + canonicalSuffix();
}

// ----------------------------------------------------------- parser

namespace {

/** The two component specs the bare "hybrid" spelling stands for. */
std::vector<PredictorSpec>
defaultHybridComponents()
{
    PredictorSpec s2;
    s2.family = SpecFamily::Stride;
    PredictorSpec fcm3;
    fcm3.family = SpecFamily::Fcm;
    return {s2, fcm3};
}

/**
 * Cursor over one spec string. Every diagnostic names the absolute
 * position (0-based, into the *full* spec, components included) and
 * the offending token, so a failure inside a long hybrid composition
 * points at the exact character.
 */
class Cursor
{
  public:
    explicit Cursor(const std::string &text) : text_(text) {}

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    bool atEnd() const { return pos_ >= text_.size(); }
    size_t pos() const { return pos_; }
    void advance() { ++pos_; }

    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        advance();
        return true;
    }

    /** The token starting at @p at: up to the next structural
     *  delimiter (or 16 chars), for diagnostics. */
    std::string
    tokenAt(size_t at) const
    {
        if (at >= text_.size())
            return "end of spec";
        size_t end = at;
        while (end < text_.size() && end - at < 16 &&
               text_[end] != ',' && text_[end] != ';' &&
               text_[end] != '(' && text_[end] != ')') {
            ++end;
        }
        return "\"" + text_.substr(at, end - at) + "\"";
    }

    [[noreturn]] void
    fail(const std::string &what, size_t at) const
    {
        throw std::invalid_argument("spec \"" + text_ + "\": " + what +
                                    " at position " +
                                    std::to_string(at) + ": " +
                                    tokenAt(at));
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        fail(what, pos_);
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;
};

size_t
parseNumber(Cursor &cursor, const char *what)
{
    const size_t start = cursor.pos();
    std::string digits;
    while (std::isdigit(static_cast<unsigned char>(cursor.peek()))) {
        digits += cursor.peek();
        cursor.advance();
    }
    if (digits.empty())
        cursor.fail(std::string("bad ") + what, start);
    try {
        return static_cast<size_t>(std::stoull(digits));
    } catch (const std::out_of_range &) {
        cursor.fail(std::string(what) + " overflows", start);
    }
}

/**
 * "<E>[/<P>]x<W>[r|f][%<T>]" with every piece after the entry
 * count optional. @p vpt non-null allows the fcm VHT/VPT split.
 */
TableGeometry
parseGeometry(Cursor &cursor, std::optional<size_t> *vpt)
{
    TableGeometry geometry;
    geometry.entries = parseNumber(cursor, "entry count");
    if (cursor.peek() == '/') {
        const size_t at = cursor.pos();
        cursor.advance();
        if (vpt == nullptr)
            cursor.fail("vht/vpt split only applies to fcm", at);
        *vpt = parseNumber(cursor, "vpt entry count");
    }
    if (cursor.eat('x')) {
        const size_t at = cursor.pos();
        geometry.ways = parseNumber(cursor, "associativity");
        if (geometry.ways == 0)
            cursor.fail("ways must be positive", at);
    }
    if (cursor.peek() == 'r') {
        geometry.replacement = core::Replacement::Random;
        cursor.advance();
    } else if (cursor.peek() == 'f') {
        geometry.replacement = core::Replacement::Fifo;
        cursor.advance();
    }
    if (cursor.eat('%')) {
        const size_t at = cursor.pos();
        const size_t bits = parseNumber(cursor, "tag width");
        if (bits < 1 || bits > 63)
            cursor.fail("tag width must be in [1, 63]", at);
        geometry.tagBits = static_cast<int>(bits);
    }
    return geometry;
}

/** ":c<W>t<T>[r|d]" (the ':' already consumed). */
core::ConfidenceConfig
parseConfidence(Cursor &cursor)
{
    core::ConfidenceConfig config;
    if (!cursor.eat('c'))
        cursor.fail("bad confidence suffix (expected 'c<width>')");
    const size_t width_at = cursor.pos();
    const size_t width = parseNumber(cursor, "confidence width");
    if (width < 1 || width > 16)
        cursor.fail("confidence width must be in [1, 16]", width_at);
    config.width = static_cast<int>(width);
    if (!cursor.eat('t'))
        cursor.fail("bad confidence suffix (expected 't<threshold>')");
    const size_t threshold_at = cursor.pos();
    const size_t threshold = parseNumber(cursor, "confidence threshold");
    if (threshold > size_t{1} << 30)
        cursor.fail("confidence threshold overflows", threshold_at);
    config.threshold = static_cast<int>(threshold);
    if (cursor.peek() == 'r') {
        config.penalty = core::ConfidencePenalty::Reset;
        cursor.advance();
    } else if (cursor.peek() == 'd') {
        config.penalty = core::ConfidencePenalty::Decrement;
        cursor.advance();
    }
    return config;
}

/** The base family name: letters, digits and dashes. */
std::string
parseBaseName(Cursor &cursor)
{
    std::string name;
    while (std::isalnum(static_cast<unsigned char>(cursor.peek())) ||
           cursor.peek() == '-') {
        name += cursor.peek();
        cursor.advance();
    }
    return name;
}

PredictorSpec parsePredictor(Cursor &cursor, bool component);

/** "hybrid(" just consumed: components and optional chooser. */
void
parseHybridComposition(Cursor &cursor, PredictorSpec &spec)
{
    spec.components.push_back(parsePredictor(cursor, true));
    if (!cursor.eat(','))
        cursor.fail("expected ',' between hybrid components");
    spec.components.push_back(parsePredictor(cursor, true));
    if (cursor.eat(';')) {
        const size_t at = cursor.pos();
        if (!(cursor.eat('c') && cursor.eat('h') && cursor.eat('@')))
            cursor.fail("expected chooser \"ch@<geometry>\"", at);
        spec.chooser = parseGeometry(cursor, nullptr);
    }
    if (!cursor.eat(')'))
        cursor.fail("unterminated hybrid composition");
}

PredictorSpec
parsePredictor(Cursor &cursor, bool component)
{
    PredictorSpec spec;
    const size_t base_at = cursor.pos();
    const std::string base = parseBaseName(cursor);

    if (base == "l" || base == "l-sat" || base == "l-consec") {
        spec.family = SpecFamily::LastValue;
        if (base == "l-sat")
            spec.lv.policy = core::LvPolicy::SaturatingCounter;
        else if (base == "l-consec")
            spec.lv.policy = core::LvPolicy::Consecutive;
    } else if (base == "s" || base == "s-sat" || base == "s2") {
        spec.family = SpecFamily::Stride;
        if (base == "s")
            spec.stride.policy = core::StridePolicy::Simple;
        else if (base == "s-sat")
            spec.stride.policy = core::StridePolicy::SaturatingCounter;
    } else if (base.rfind("fcm", 0) == 0) {
        spec.family = SpecFamily::Fcm;
        const auto dash = base.find('-');
        const std::string num = base.substr(3, dash - 3);
        if (num.empty() ||
            num.find_first_not_of("0123456789") != std::string::npos) {
            cursor.fail("bad fcm order", base_at + 3);
        }
        try {
            spec.fcm.order = std::stoi(num);
        } catch (const std::out_of_range &) {
            cursor.fail("fcm order overflows", base_at + 3);
        }
        const std::string variant =
                dash == std::string::npos ? "" : base.substr(dash + 1);
        if (variant == "full") {
            spec.fcm.blending = core::FcmBlending::Full;
        } else if (variant == "pure") {
            spec.fcm.blending = core::FcmBlending::None;
        } else if (variant == "sat") {
            spec.fcm.counterMax = 16;
        } else if (!variant.empty()) {
            cursor.fail("unknown fcm variant", base_at + dash + 1);
        }
    } else if (base == "hybrid") {
        if (component) {
            cursor.fail("hybrid components must be simple predictors",
                        base_at);
        }
        spec.family = SpecFamily::Hybrid;
        if (cursor.eat('('))
            parseHybridComposition(cursor, spec);
        else
            spec.components = defaultHybridComponents();
    } else {
        cursor.fail("unknown predictor spec", base_at);
    }

    if (cursor.peek() == '@') {
        const size_t at = cursor.pos();
        cursor.advance();
        if (spec.family == SpecFamily::Hybrid) {
            cursor.fail("hybrid takes component budgets inside "
                        "\"hybrid(...)\", not '@'",
                        at);
        }
        std::optional<size_t> vpt;
        spec.table = parseGeometry(
                cursor,
                spec.family == SpecFamily::Fcm ? &vpt : nullptr);
        if (spec.family == SpecFamily::Fcm && !vpt) {
            cursor.fail("bounded fcm needs <vht>/<vpt> entry counts",
                        at);
        }
        spec.vptEntries = vpt;
    }

    if (cursor.eat(':'))
        spec.confidence = parseConfidence(cursor);

    // Whatever follows must be a delimiter the caller owns: the end
    // of the spec at top level, or ,;) inside a hybrid composition
    // (end-of-spec passes through so the composition parser reports
    // the missing ',' or ')' itself).
    const char next = cursor.peek();
    const bool terminated =
            component ? (next == ',' || next == ';' || next == ')' ||
                         cursor.atEnd())
                      : cursor.atEnd();
    if (!terminated)
        cursor.fail("unexpected trailing characters");
    return spec;
}

} // anonymous namespace

PredictorSpec
parseSpec(const std::string &text)
{
    Cursor cursor(text);
    return parsePredictor(cursor, false);
}

// -------------------------------------------------------- canonical

std::string
PredictorSpec::canonicalName() const
{
    std::string s;
    switch (family) {
      case SpecFamily::LastValue:
        s = core::lvPolicyName(lv.policy);
        break;
      case SpecFamily::Stride:
        s = core::stridePolicyName(stride.policy);
        break;
      case SpecFamily::Fcm:
        s = core::fcmVariantName(fcm);
        break;
      case SpecFamily::Hybrid:
        if (!chooser && components == defaultHybridComponents()) {
            s = "hybrid";
        } else {
            s = "hybrid(" + components.at(0).canonicalName() + "," +
                components.at(1).canonicalName();
            if (chooser)
                s += ";ch@" + chooser->canonical();
            s += ")";
        }
        break;
    }
    if (table) {
        s += "@";
        if (vptEntries) {
            s += std::to_string(table->entries) + "/" +
                 std::to_string(*vptEntries) + table->canonicalSuffix();
        } else {
            s += table->canonical();
        }
    }
    if (confidence)
        s += core::confidenceSuffix(*confidence);
    return s;
}

// ------------------------------------------------------------ build

namespace {

/**
 * Construct @p spec's own node, taking each sub-predictor — a gate's
 * ungated inner, a hybrid's components — from @p sub. The one copy of
 * the spec -> predictor mapping: PredictorSpec::build() passes a @p sub
 * that builds fresh, SpecInterner one that shares.
 */
template <typename Sub>
core::PredictorPtr
buildNode(const PredictorSpec &spec, Sub &&sub)
{
    using namespace core;
    if (spec.confidence) {
        PredictorSpec inner = spec;
        inner.confidence.reset();
        return std::make_unique<ConfidencePredictor>(sub(inner),
                                                     *spec.confidence);
    }
    switch (spec.family) {
      case SpecFamily::LastValue:
        if (spec.table) {
            return std::make_unique<BoundedLastValuePredictor>(
                    spec.lv, spec.table->config());
        }
        return std::make_unique<LastValuePredictor>(spec.lv);
      case SpecFamily::Stride:
        if (spec.table) {
            return std::make_unique<BoundedStridePredictor>(
                    spec.stride, spec.table->config());
        }
        return std::make_unique<StridePredictor>(spec.stride);
      case SpecFamily::Fcm:
        if (spec.table) {
            BoundedFcmConfig config;
            config.fcm = spec.fcm;
            config.vht = spec.table->config();
            config.vpt = spec.table->config();
            config.vpt.entries = *spec.vptEntries;
            config.maxFollowers = 4;    // realistic per-entry budget
            return std::make_unique<BoundedFcmPredictor>(config);
        }
        return std::make_unique<FcmPredictor>(spec.fcm);
      case SpecFamily::Hybrid: {
        HybridChooser ch;
        if (spec.chooser)
            ch.table = spec.chooser->config();
        return std::make_unique<HybridPredictor>(
                sub(spec.components.at(0)), sub(spec.components.at(1)),
                ch);
      }
    }
    throw std::logic_error("unhandled spec family");
}

} // anonymous namespace

core::PredictorPtr
PredictorSpec::build() const
{
    return buildNode(*this, [](const PredictorSpec &sub) {
        return core::SharedPredictor(sub.build());
    });
}

core::SharedPredictor
SpecInterner::build(const PredictorSpec &spec)
{
    std::string key = spec.canonicalName();
    if (const auto it = built_.find(key); it != built_.end())
        return it->second;
    core::SharedPredictor node = buildNode(
            spec, [this](const PredictorSpec &sub) { return build(sub); });
    built_.emplace(std::move(key), node);
    return node;
}

// ------------------------------------------------------------- help

const char *
specGrammarHelp()
{
    return
"predictor spec grammar (typed model: src/exp/spec.hh)\n"
"\n"
"  spec       := base [\"@\" budget] [confidence]\n"
"  base       := \"l\" | \"l-sat\" | \"l-consec\"          last value\n"
"             |  \"s\" | \"s-sat\" | \"s2\"                stride\n"
"             |  \"fcm\"K [\"-full\"|\"-pure\"|\"-sat\"]     fcm, order K\n"
"             |  \"hybrid\"                            s2 + fcm3 chooser hybrid\n"
"             |  \"hybrid(\" spec \",\" spec [\";ch@\" geometry] \")\"\n"
"  budget     := geometry                            one table (lv/stride)\n"
"             |  V \"/\" P suffix                      fcm VHT/VPT split\n"
"  geometry   := E suffix\n"
"  suffix     := [\"x\" W] [\"r\"|\"f\"] [\"%\" T]\n"
"  confidence := \":c\" W \"t\" T [\"r\"|\"d\"]\n"
"\n"
"Budgets make a spec's tables finite (set-associative, E/V/P entry\n"
"counts, W <= 255 ways, default 4, W = E is one fully associative set;\n"
"victim policy LRU by default, \"r\" = deterministic-random, \"f\" = FIFO).\n"
"\"%T\" stores only the low T bits of each key as the tag, so distinct\n"
"keys may alias (the aliasing experiment's knob); omitted = full 64-bit\n"
"keys. Spec-built bounded fcm keeps at most 4 follower values per VPT\n"
"entry. A hybrid composes two simple component specs; \";ch@...\"\n"
"bounds the chooser table too, so chooser + components can share one\n"
"global hardware budget (the hybrid_split experiment). \":cWtT\"\n"
"gates any spec on a per-PC saturating confidence counter: width W\n"
"bits, predict only at counter >= T, miss penalty reset (\"r\", the\n"
"tacit default) or decrement (\"d\"); threshold 0 gates nothing.\n"
"\n"
"examples:\n"
"  l  s2  fcm3  fcm2-pure  hybrid          unbounded (the paper's models)\n"
"  l@1024x4  s2@256x2r  fcm3@256/1024x4    finite tables\n"
"  l@1024x4%8                              8-bit partial tags\n"
"  hybrid(s2@256x2,fcm3@256/1024x4;ch@512x4)   fully bounded hybrid\n"
"  fcm3@256/1024x4:c3t6                    bounded + confidence-gated\n";
}

} // namespace vp::exp
