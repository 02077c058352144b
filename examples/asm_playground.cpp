/**
 * @file
 * Assembler playground: write a VP ISA program in text assembly, run
 * it on the VM, and watch each predictor race on the live value
 * trace.
 *
 * Usage:
 *   asm_playground              run the built-in demo program
 *   asm_playground file.s       assemble and run your own program
 *
 * This demonstrates the full substrate path the experiments use:
 * assembler -> program -> machine -> value trace -> predictor bank.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/suite.hh"
#include "isa/disasm.hh"
#include "masm/assembler.hh"
#include "sim/driver.hh"
#include "sim/table.hh"

using namespace vp;

namespace {

const char *demoProgram = R"(
# Demo: walk an array twice and checksum it -- the inner loads are a
# repeated stride the fcm learns after one pass.
        .data
arr:    .word 3, 1, 4, 1, 5, 9, 2, 6
        .text
main:   li   s0, 0          # pass counter
        li   s2, 0          # checksum
pass:   la   t0, arr
        li   t1, 8          # elements
loop:   ld   t2, 0(t0)      # repeated-stride load values
        add  s2, s2, t2
        addi t0, t0, 8
        addi t1, t1, -1
        bnez t1, loop
        inc  s0
        slti t3, s0, 12     # 12 passes
        bnez t3, pass
        halt
)";

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string source = demoProgram;
    std::string name = "demo";
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        source = buf.str();
        name = argv[1];
    }

    isa::Program prog;
    try {
        prog = masm::assemble(name, source);
    } catch (const masm::AsmError &err) {
        std::fprintf(stderr, "assembly error: %s\n", err.what());
        return 1;
    }

    std::printf("assembled %s: %zu instructions, %zu data bytes\n\n",
                name.c_str(), prog.size(), prog.data.size());
    std::printf("%s\n", isa::disassemble(prog).c_str());

    sim::PredictorBank bank;
    exp::addSpecs(bank, {"l", "s2", "fcm1", "fcm2", "fcm3"});

    sim::RunOutcome outcome;
    try {
        outcome = sim::runProgram(prog, bank);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "run failed: %s\n", err.what());
        return 1;
    }

    std::printf("retired %llu instructions, %llu predicted (%.0f%%)\n\n",
                static_cast<unsigned long long>(
                        outcome.vmResult.stats.retired),
                static_cast<unsigned long long>(
                        outcome.vmResult.stats.predicted),
                100.0 * outcome.vmResult.stats.predictedFraction());

    sim::TextTable table;
    table.row().cell("predictor").cell("correct").cell("total")
         .cell("accuracy%").rule();
    for (size_t i = 0; i < bank.size(); ++i) {
        const auto &member = bank.member(i);
        table.row().cell(member.predictor->name());
        table.cell(member.stats.correct());
        table.cell(member.stats.total());
        table.cell(100.0 * member.stats.accuracy(), 1);
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
