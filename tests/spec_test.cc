/**
 * @file
 * Property tests for the typed PredictorSpec model (exp/spec.hh):
 *
 *  - parse -> canonical -> parse is the identity over a generated
 *    grid of all families x budgets x ways x victim policies x tag
 *    widths x confidence suffixes (and hybrid compositions thereof),
 *    every generated spec already being its own canonical form;
 *  - canonicalName is idempotent and build() accepts every canonical
 *    spec;
 *  - malformed specs throw std::invalid_argument naming the offending
 *    position and token;
 *  - the grammar help text exists and names its own productions.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/spec.hh"

namespace {

using namespace vp;
using namespace vp::exp;

/** One bounded-suffix shape, spelled for lv/stride and for fcm. */
struct BudgetCase
{
    const char *plain;      ///< lv/stride suffix ("" = unbounded)
    const char *fcm;        ///< fcm suffix with the VHT/VPT split
};

const std::vector<BudgetCase> &
budgetCases()
{
    static const std::vector<BudgetCase> cases = {
        {"", ""},
        {"@256x4", "@64/256x4"},
        {"@1024x16", "@256/1024x16"},
        {"@64x64", "@64/256x64"},
        {"@512x8r", "@128/512x8r"},
        {"@256x2f", "@64/256x2f"},
    };
    return cases;
}

const std::vector<std::string> &
tagSuffixes()
{
    static const std::vector<std::string> tags = {"", "%8", "%13"};
    return tags;
}

const std::vector<std::string> &
confidenceSuffixes()
{
    static const std::vector<std::string> suffixes = {
        "", ":c2t2", ":c3t5d", ":c1t1", ":c4t0",
    };
    return suffixes;
}

/** Every simple (non-hybrid) canonical spec of the grid. */
std::vector<std::string>
simpleSpecGrid()
{
    static const std::vector<std::string> families = {
        "l",    "l-sat",     "l-consec",  "s",        "s-sat", "s2",
        "fcm1", "fcm3",      "fcm2-pure", "fcm4-full", "fcm2-sat",
    };
    std::vector<std::string> specs;
    for (const auto &family : families) {
        const bool fcm = family.rfind("fcm", 0) == 0;
        for (const auto &budget : budgetCases()) {
            const std::string suffix = fcm ? budget.fcm : budget.plain;
            for (const auto &tag : tagSuffixes()) {
                if (suffix.empty() && !tag.empty())
                    continue;       // tags only exist on tables
                for (const auto &conf : confidenceSuffixes())
                    specs.push_back(family + suffix + tag + conf);
            }
        }
    }
    return specs;
}

void
expectRoundTrip(const std::string &spec)
{
    SCOPED_TRACE(spec);
    const PredictorSpec parsed = parseSpec(spec);
    const std::string canonical = parsed.canonicalName();

    // The grid generates canonical spellings only, so the canonical
    // name must be byte-identical to the input...
    EXPECT_EQ(canonical, spec);
    // ...and the round trip must reproduce the exact AST.
    EXPECT_EQ(parseSpec(canonical), parsed);
    EXPECT_EQ(parseSpec(canonical).canonicalName(), canonical);
}

TEST(SpecRoundTrip, SimpleSpecsAcrossTheWholeGrid)
{
    const auto specs = simpleSpecGrid();
    ASSERT_GT(specs.size(), 400u);
    for (const auto &spec : specs)
        expectRoundTrip(spec);
}

TEST(SpecRoundTrip, HybridCompositionsAcrossTheGrid)
{
    const std::vector<std::string> components = {
        "s2", "s-sat", "s2@256x2", "l@512x4%8", "fcm3",
        "fcm3@256/1024x4", "fcm2-pure@64/256x2r:c2t2",
    };
    const std::vector<std::string> choosers = {
        "", ";ch@512x4", ";ch@256x4f%6", ";ch@64x64",
    };
    for (const auto &a : components) {
        for (const auto &b : components) {
            for (const auto &chooser : choosers) {
                // The one non-canonical spelling in the grid: the
                // default composition collapses to bare "hybrid"
                // (asserted separately below).
                if (a == "s2" && b == "fcm3" && chooser.empty())
                    continue;
                for (const char *conf : {"", ":c2t3"}) {
                    expectRoundTrip("hybrid(" + a + "," + b + chooser +
                                    ")" + conf);
                }
            }
        }
    }
}

TEST(SpecRoundTrip, BareHybridIsTheCanonicalFormOfItsExpansion)
{
    // "hybrid" expands to the default s2 + fcm3 composition, so the
    // spelled-out form canonicalises back to the short one...
    EXPECT_EQ(parseSpec("hybrid(s2,fcm3)").canonicalName(), "hybrid");
    EXPECT_EQ(parseSpec("hybrid").canonicalName(), "hybrid");
    EXPECT_EQ(parseSpec("hybrid(s2,fcm3)"), parseSpec("hybrid"));
    // ...but any deviation (components, chooser geometry) keeps the
    // explicit spelling.
    EXPECT_EQ(parseSpec("hybrid(s2,fcm2)").canonicalName(),
              "hybrid(s2,fcm2)");
    EXPECT_EQ(parseSpec("hybrid(s2,fcm3;ch@512x4)").canonicalName(),
              "hybrid(s2,fcm3;ch@512x4)");
}

TEST(SpecRoundTrip, NonCanonicalSpellingsCanonicalise)
{
    // Defaults made explicit, and the reset penalty, canonicalise
    // away; the AST is unchanged.
    for (const auto &[spelled, canonical] :
         std::vector<std::pair<std::string, std::string>>{
                 {"l@256", "l@256x4"},
                 {"fcm3@256/1024", "fcm3@256/1024x4"},
                 {"l:c2t3r", "l:c2t3"},
                 {"fcm3@256/1024x4:c3t6r", "fcm3@256/1024x4:c3t6"},
                 {"hybrid(s2@256,fcm3)", "hybrid(s2@256x4,fcm3)"},
         }) {
        SCOPED_TRACE(spelled);
        EXPECT_EQ(parseSpec(spelled).canonicalName(), canonical);
        EXPECT_EQ(parseSpec(spelled), parseSpec(canonical));
    }
}

TEST(SpecBuild, EveryCanonicalSpecBuildsAPredictor)
{
    for (const auto &spec : simpleSpecGrid()) {
        SCOPED_TRACE(spec);
        ASSERT_NE(parseSpec(spec).build(), nullptr);
    }
    ASSERT_NE(parseSpec("hybrid(s2@256x2,fcm3@256/1024x4;ch@512x4)")
                      .build(),
              nullptr);
}

TEST(SpecBuild, TagWidthShowsUpInPredictorNames)
{
    EXPECT_EQ(parseSpec("l@1024x4%8").build()->name(), "l@1024x4%8");
    EXPECT_EQ(parseSpec("s2@256x2r%12").build()->name(), "s2@256x2r%12");
    EXPECT_EQ(parseSpec("fcm3@256/1024x4%8").build()->name(),
              "fcm3@256/1024x4%8");
    EXPECT_EQ(
            parseSpec("hybrid(s2@256x2,fcm3@256/1024x4;ch@512x4%6)")
                    .build()
                    ->name(),
            "hyb(s2@256x2+fcm3@256/1024x4;ch@512x4%6)");
}

/** Malformed spec -> the diagnostic names position and token. */
struct BadCase
{
    const char *spec;
    std::vector<const char *> expected;     ///< message substrings
};

TEST(SpecDiagnostics, MalformedSpecsNameThePositionAndToken)
{
    const std::vector<BadCase> cases = {
        {"", {"unknown predictor spec", "position 0", "end of spec"}},
        {"bogus", {"unknown predictor spec", "position 0", "\"bogus\""}},
        {"l@abc", {"bad entry count", "position 2", "\"abc\""}},
        {"l@", {"bad entry count", "position 2", "end of spec"}},
        {"l@256x4q",
         {"unexpected trailing characters", "position 7", "\"q\""}},
        {"l%8", {"unexpected trailing characters", "position 1"}},
        {"l@256x0", {"ways must be positive", "position 6"}},
        {"l@256xfa", {"bad associativity", "position 6", "\"fa\""}},
        {"l@256x4%0", {"tag width must be in [1, 63]", "position 8"}},
        {"l@256x4%64", {"tag width must be in [1, 63]", "position 8"}},
        {"l@256x4%", {"bad tag width", "position 8"}},
        {"l@256/512x4",
         {"vht/vpt split only applies to fcm", "position 5"}},
        {"fcm3@256x4",
         {"bounded fcm needs <vht>/<vpt> entry counts", "position 4"}},
        {"fcmx", {"bad fcm order", "position 3"}},
        {"fcm2-weird", {"unknown fcm variant", "position 5"}},
        {"fcm99999999999999999999", {"fcm order overflows",
                                     "position 3"}},
        {"hybrid@256x4",
         {"hybrid takes component budgets", "position 6"}},
        {"hybrid(s2", {"expected ',' between hybrid components",
                       "position 9"}},
        {"hybrid(s2,fcm3",
         {"unterminated hybrid composition", "position 14"}},
        {"hybrid(s2,fcm3;x@4)",
         {"expected chooser \"ch@<geometry>\"", "position 15"}},
        {"hybrid(hybrid,l)",
         {"hybrid components must be simple predictors", "position 7"}},
        {"hybrid(s2,fcm3)x", {"unexpected trailing characters",
                              "position 15"}},
        {"s2@256x2:c2",
         {"expected 't<threshold>'", "position 11"}},
        {"l:c0t1", {"confidence width must be in [1, 16]",
                    "position 3"}},
        {"l:c2t99999999999999999999",
         {"confidence threshold overflows", "position 5"}},
    };
    for (const auto &bad : cases) {
        SCOPED_TRACE(bad.spec);
        try {
            parseSpec(bad.spec);
            FAIL() << "accepted malformed spec";
        } catch (const std::invalid_argument &error) {
            const std::string what = error.what();
            for (const char *expected : bad.expected) {
                EXPECT_NE(what.find(expected), std::string::npos)
                        << "diagnostic \"" << what
                        << "\" is missing \"" << expected << '"';
            }
        }
    }
}

TEST(SpecDiagnostics, GeometryLegalityIsABuildTimeError)
{
    // The grammar accepts these shapes; the table constructors reject
    // the geometry (same invalid_argument contract as before).
    for (const char *spec :
         {"s2@0x4", "s2@256x3", "fcm3@256/0x4", "l@64x128",
          "l@512x256"}) {
        SCOPED_TRACE(spec);
        EXPECT_NO_THROW(parseSpec(spec));
        EXPECT_THROW(parseSpec(spec).build(), std::invalid_argument);
    }
}

TEST(SpecHelp, GrammarHelpIsTheSingleSourceOfTruth)
{
    const std::string help = specGrammarHelp();
    // The productions every surface (vpexp --spec-help, vpsim list)
    // prints: families, budgets, tags, compositions, confidence.
    for (const char *token :
         {"hybrid(", ";ch@", "%", ":c", "W <= 255", "spec", "geometry",
          "confidence", "l@1024x4%8"}) {
        EXPECT_NE(help.find(token), std::string::npos) << token;
    }
}

} // anonymous namespace
