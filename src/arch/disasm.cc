#include "arch/disasm.hh"

#include <array>
#include <ostream>
#include <sstream>

#include "arch/interconnect.hh"

namespace dpu {

namespace {

const char *
peOpName(PeOp op)
{
    switch (op) {
      case PeOp::Nop: return "nop";
      case PeOp::Add: return "add";
      case PeOp::Mul: return "mul";
      case PeOp::PassA: return "pass_a";
      case PeOp::PassB: return "pass_b";
    }
    return "?";
}

void
renderLanes(std::ostringstream &os, const char *tag,
            const std::vector<bool> &mask)
{
    bool any = false;
    for (bool b : mask)
        any |= b;
    if (!any)
        return;
    os << " " << tag << "{";
    bool first = true;
    for (size_t b = 0; b < mask.size(); ++b) {
        if (!mask[b])
            continue;
        if (!first)
            os << ",";
        os << b;
        first = false;
    }
    os << "}";
}

struct Renderer
{
    const ArchConfig &cfg;
    const WriterTable &writers;
    std::ostringstream os;

    void
    operator()(const NopInstr &)
    {
        os << "nop";
    }

    void
    operator()(const LoadInstr &in)
    {
        os << "load row=" << in.memRow;
        renderLanes(os, "banks", in.enable);
    }

    void
    operator()(const StoreInstr &in)
    {
        os << "store row=" << in.memRow;
        bool first = true;
        os << " rd{";
        for (size_t b = 0; b < in.enable.size(); ++b) {
            if (!in.enable[b])
                continue;
            if (!first)
                os << ",";
            os << "b" << b << "@" << in.readAddr[b];
            first = false;
        }
        os << "}";
    }

    void
    operator()(const Store4Instr &in)
    {
        os << "store_4 row=" << in.memRow;
        for (const auto &s : in.slots)
            if (s.active)
                os << " b" << s.bank << "@" << s.addr;
    }

    void
    operator()(const Copy4Instr &in)
    {
        os << "copy_4";
        for (const auto &s : in.slots) {
            if (!s.active)
                continue;
            os << " b" << s.srcBank << "@" << s.srcAddr;
            if (s.srcBank < in.validRst.size() &&
                in.validRst[s.srcBank]) {
                os << "!";
            }
            os << "->b" << s.dstBank;
        }
    }

    void
    operator()(const ExecInstr &in)
    {
        os << "exec";
        // Trees with any active PE.
        for (uint32_t t = 0; t < cfg.trees(); ++t) {
            bool active = false;
            for (uint32_t p = 0; p < cfg.pesPerTree(); ++p)
                if (in.peOp[t * cfg.pesPerTree() + p] != PeOp::Nop)
                    active = true;
            if (!active)
                continue;
            os << " t" << t << "[";
            bool first = true;
            for (uint32_t l = cfg.depth; l >= 1; --l) {
                for (uint32_t i = 0; i < cfg.pesInLayer(l); ++i) {
                    uint32_t pe = cfg.peId({t, l, i});
                    if (in.peOp[pe] == PeOp::Nop)
                        continue;
                    if (!first)
                        os << " ";
                    os << "L" << l << "." << i << ":"
                       << peOpName(in.peOp[pe]);
                    first = false;
                }
            }
            os << "]";
        }
        // Register reads: bank@addr, "!" marks valid_rst.
        bool any_read = false;
        for (uint32_t b = 0; b < cfg.banks; ++b)
            any_read |= in.validRst[b];
        os << " rd{";
        bool first = true;
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            // A bank is read if some port selects it; approximate by
            // listing banks that appear in inputSel of ports whose
            // leaf PE is active.
            bool used = false;
            for (uint32_t t = 0; t < cfg.trees() && !used; ++t)
                for (uint32_t i = 0; i < cfg.pesInLayer(1); ++i) {
                    uint32_t pe = cfg.peId({t, 1, i});
                    if (in.peOp[pe] == PeOp::Nop)
                        continue;
                    for (uint32_t side = 0; side < 2; ++side)
                        if (in.inputSel[cfg.portBank(t, i * 2 + side)] ==
                            b)
                            used = true;
                }
            if (!used)
                continue;
            if (!first)
                os << ",";
            os << "b" << b << "@" << in.readAddr[b];
            if (in.validRst[b])
                os << "!";
            first = false;
        }
        os << "}";
        (void)any_read;
        // Writes: bank <- PE.
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.writeEnable[b])
                continue;
            const auto &mux = writers[b];
            os << " wr b" << b << "<-pe"
               << mux[in.outputSel[b] % mux.size()];
        }
    }
};

std::string
render(const ArchConfig &cfg, const WriterTable &writers,
       const Instruction &instr)
{
    Renderer r{cfg, writers, {}};
    std::visit(r, instr);
    return r.os.str();
}

} // namespace

std::string
disassemble(const ArchConfig &cfg, const Instruction &instr)
{
    return render(cfg, writerTable(cfg), instr);
}

void
disassembleProgram(const ArchConfig &cfg,
                   const std::vector<Instruction> &program,
                   std::ostream &out)
{
    IsaLayout lay(cfg);
    const WriterTable writers = writerTable(cfg);
    std::array<uint64_t, 6> counts{};
    for (size_t i = 0; i < program.size(); ++i) {
        ++counts[static_cast<size_t>(kindOf(program[i]))];
        out << i << ": " << render(cfg, writers, program[i]) << "\n";
    }
    out << "; " << program.size() << " instructions, "
        << programSizeBits(cfg, program) << " bits packed (IL="
        << lay.maxLengthBits() << ")\n";
    for (size_t k = 0; k < counts.size(); ++k) {
        if (counts[k]) {
            out << "; " << kindName(static_cast<InstrKind>(k)) << ": "
                << counts[k] << "\n";
        }
    }
}

} // namespace dpu
