/**
 * @file
 * Typed predictor-spec model: the AST behind every predictor spec
 * string in the repo.
 *
 * The paper's §4.2 endpoint (a hybrid fcm+stride predictor with
 * choosing) and its §4.3 cost model both demand predictor
 * *composition* under a shared hardware budget. This module is the
 * abstraction that carries it: a PredictorSpec is a typed, composable
 * description — family + variant, optional TableGeometry per bounded
 * table (including partial-tag widths), an optional confidence gate,
 * and for hybrids a composition node holding two component specs plus
 * a chooser geometry. `parseSpec` turns a spec string into the AST
 * with position-precise diagnostics, `canonicalName` renders the
 * unique canonical spelling (parse -> canonical -> parse is the
 * identity, the property tests/spec_test.cc sweeps), and `build`
 * constructs the predictor. `exp::makePredictor` (suite.hh) is a thin
 * shim over parseSpec().build(); SpecInterner builds whole banks with
 * every shared sub-predictor built once (exp::addSpecs).
 *
 * The grammar itself is documented once, in specGrammarHelp() — the
 * text `vpexp --spec-help` and `vpsim list` print. Examples:
 *
 *   fcm3@256/1024x4:c3t6                bounded fcm, gated
 *   l@1024x4%8                          partial 8-bit tags
 *   hybrid(s2@256x2,fcm3@256/1024x4;ch@512x4)
 *                                       fully bounded hybrid
 */

#ifndef VP_EXP_SPEC_HH
#define VP_EXP_SPEC_HH

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bounded_table.hh"
#include "core/confidence.hh"
#include "core/fcm.hh"
#include "core/last_value.hh"
#include "core/predictor.hh"
#include "core/stride.hh"

namespace vp::exp {

/**
 * Geometry of one bounded table, exactly as the grammar spells it:
 * entry budget, associativity, victim policy, stored-tag width. The
 * reusable unit every bounded spec (lv/stride table, fcm VHT+VPT,
 * hybrid chooser — and, next, bounded confidence tables) shares.
 */
struct TableGeometry
{
    size_t entries = 0;

    /** Associativity (ways per set). */
    size_t ways = 4;

    core::Replacement replacement = core::Replacement::Lru;

    /** Stored tag width in bits; 0 = full 64-bit keys (no aliasing). */
    int tagBits = 0;

    /** The core table configuration this geometry describes. */
    core::BoundedTableConfig config() const;

    /** Canonical "<E>x<W|fa>[r|f][%<T>]" (LRU is tacit). */
    std::string canonical() const;

    /** The part after the entry count ("x4r%8"), shared with the
     *  fcm "<V>/<P>x..." rendering. */
    std::string canonicalSuffix() const;

    friend bool operator==(const TableGeometry &,
                           const TableGeometry &) = default;
};

/** Predictor families the grammar names. */
enum class SpecFamily {
    LastValue,      ///< "l", "l-sat", "l-consec"
    Stride,         ///< "s", "s-sat", "s2"
    Fcm,            ///< "fcmK", "fcmK-full", "fcmK-pure", "fcmK-sat"
    Hybrid          ///< "hybrid", "hybrid(a,b[;ch@...])"
};

/**
 * One parsed predictor spec.
 *
 * Exactly one family payload is meaningful (lv/stride/fcm config, or
 * the component list for hybrids); the bounded geometry, vpt split
 * and confidence gate apply per family as the grammar allows.
 * Equality is structural — two specs compare equal iff they build
 * behaviourally identical predictors, which is what makes the
 * parse -> canonical -> parse round-trip testable.
 */
struct PredictorSpec
{
    SpecFamily family = SpecFamily::LastValue;

    core::LvConfig lv{};            ///< LastValue payload
    core::StrideConfig stride{};    ///< Stride payload
    core::FcmConfig fcm{};          ///< Fcm payload

    /** Bounded geometry; nullopt = unbounded. For fcm this is the
     *  VHT and @c vptEntries holds the VPT budget (same ways, policy
     *  and tag width — the grammar writes one suffix for both). */
    std::optional<TableGeometry> table;
    std::optional<size_t> vptEntries;

    /** Hybrid composition: exactly two component specs. */
    std::vector<PredictorSpec> components;

    /** Hybrid chooser geometry; nullopt = unbounded per-PC map. */
    std::optional<TableGeometry> chooser;

    /** Confidence gate (":c<W>t<T>[r|d]"); nullopt = ungated. */
    std::optional<core::ConfidenceConfig> confidence;

    /**
     * The canonical spelling: the unique string that parses back to
     * this spec. Round-trip guaranteed (and golden-pinned for every
     * registry spec): canonicalName(parseSpec(s)) == s whenever s is
     * already canonical, and parseSpec(canonicalName(x)) == x for
     * every parseable x.
     */
    std::string canonicalName() const;

    /**
     * Construct the predictor this spec describes.
     * @throws std::invalid_argument for geometries the tables reject
     * (ways not dividing entries, bounded fcm order above 8, ...).
     */
    core::PredictorPtr build() const;

    friend bool operator==(const PredictorSpec &,
                           const PredictorSpec &) = default;
};

/**
 * Builds many specs into one shared predictor DAG: every spec and
 * sub-spec (a gate's ungated inner, a hybrid's components) is built
 * once, keyed by canonicalName(), and every later request for the
 * same canonical spelling returns the same object. The confidence
 * sweep's 72 specs become 5 leaf predictors, the hybrid over two of
 * them, and 66 gates over those six. A canonical name determines its
 * spec exactly (the round-trip property above), so one name means one
 * behaviour; ValuePredictor::name() is only a display label.
 *
 * Shared predictors must be trained once per event by one owner —
 * sim::PredictorBank, whose add() finds the sharing by pointer
 * identity and evaluates each node once per batch.
 */
class SpecInterner
{
  public:
    /** The predictor for @p spec, built on first request. */
    core::SharedPredictor build(const PredictorSpec &spec);

  private:
    std::unordered_map<std::string, core::SharedPredictor> built_;
};

/**
 * Parse @p text into a PredictorSpec.
 *
 * @throws std::invalid_argument naming the offending position and
 * token, e.g.: spec "l@abc": bad entry count at position 2: "abc".
 */
PredictorSpec parseSpec(const std::string &text);

/**
 * The spec grammar, documented once: the single source of truth that
 * `vpexp --spec-help` and `vpsim list` print and the README/suite.hh
 * docs reference.
 */
const char *specGrammarHelp();

} // namespace vp::exp

#endif // VP_EXP_SPEC_HH
