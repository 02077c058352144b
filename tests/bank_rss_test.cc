/**
 * @file
 * Resident-memory guard for bank construction: building bounded
 * predictors over 1M-entry tables must not write the tables' pages.
 * The arrays come zero-filled from HugePageAllocator and their entry
 * types skip value-initialisation (core/hugepage.hh), so a freshly
 * built bank is resident only in its bookkeeping. Writing every page,
 * as a value-initialising resize() does, makes these three tables
 * about 290 MB resident.
 *
 * Linux only: the guard reads VmRSS from /proc/self/status, and on
 * other platforms it is compiled out.
 */

#include <gtest/gtest.h>

#if defined(__linux__)

#include <fstream>
#include <sstream>
#include <string>

#include "exp/suite.hh"
#include "sim/driver.hh"

namespace {

using namespace vp;

/** Resident set size of this process in MB, from /proc/self/status. */
double
residentMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    ADD_FAILURE() << "no VmRSS line in /proc/self/status";
    return 0.0;
}

TEST(BankRss, BuildingMegaEntryTablesWritesNoTablePages)
{
    const double before = residentMb();
    sim::PredictorBank bank;
    exp::addSpecs(bank, {"l@1048576", "s2@1048576",
                         "fcm3@1048576/1048576x16"});
    const double grown = residentMb() - before;
    EXPECT_LT(grown, 32.0) << "bank build made " << grown
                           << " MB resident";
}

} // namespace

#endif // __linux__
