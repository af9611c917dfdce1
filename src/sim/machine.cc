#include "sim/machine.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "arch/interconnect.hh"
#include "dag/binarize.hh"
#include "dag/dag.hh"
#include "dag/eval.hh"
#include "support/logging.hh"

namespace dpu {

/**
 * A program in the simulator's decoded form: built once per Machine,
 * immutable afterwards, shared by every run. Each instruction owns a
 * contiguous range of each micro-op pool; the ranges end where the
 * next instruction's begin (a sentinel closes the last one).
 */
struct DecodedProgram
{
    /** Operand slots of an exec: B leaf ports, then one per PE. With
     *  B <= 64 and fewer PEs than banks, every config fits. Copies
     *  use slots 0-3; loads and stores use the bank's memory column. */
    static constexpr uint32_t kMaxSlots = 128;

    /** A register read into operand slot `slot`. */
    struct Read
    {
        uint8_t slot;
        uint8_t bank;
        uint16_t addr;
    };

    /** One active PE: slot `out` = a + b, a * b, or a (pass). */
    enum class Op : uint8_t { Add, Mul, Pass };
    struct Step
    {
        Op op;
        uint8_t out, a, b;
    };

    /** A register freed by valid_rst. */
    struct Free
    {
        uint8_t bank;
        uint16_t addr;
    };

    /** An automatic write of operand slot `slot` into `bank`. */
    struct Write
    {
        uint8_t bank;
        uint8_t slot;
    };

    struct Instr
    {
        InstrKind kind = InstrKind::Nop;
        uint32_t memRow = 0;
        uint32_t reads = 0, steps = 0, frees = 0, writes = 0;
    };

    uint32_t banks = 0;
    uint32_t regsPerBank = 0;
    uint32_t execLatency = 0; ///< D + 1 pipeline stages.
    uint32_t numRows = 0;

    std::vector<Instr> instrs; ///< One per instruction, plus a sentinel.
    std::vector<Read> reads;
    std::vector<Step> steps;
    std::vector<Free> frees;
    std::vector<Write> writes;

    /** Flat data-memory index (row * B + column) of each input and
     *  output, in program order. */
    std::vector<uint32_t> inputAt, outputAt;

    /** Every SimStats event count a completed run reaches: they
     *  depend on the instructions alone, never on values or state. */
    SimStats counts;

    uint64_t transferBytes = 0;

    size_t size() const { return instrs.size() - 1; }
};

namespace {

using D = DecodedProgram;

/** Builds a DecodedProgram, making every instruction-only check. */
class Decoder
{
  public:
    Decoder(const CompiledProgram &prog, D &out)
        : prog(prog), cfg(prog.cfg), out(out), writers(writerTable(cfg))
    {
        dpu_assert(cfg.banks + cfg.numPes() <= D::kMaxSlots,
                   "config exceeds the decoded operand slots");
        dpu_assert(uint64_t(prog.numRows) * cfg.banks <= UINT32_MAX,
                   "data memory exceeds the 32-bit flat index");
        // The trees in evaluation order: tree by tree, layer 1 (the
        // leaves) up to the root.
        for (uint32_t t = 0; t < cfg.trees(); ++t)
            for (uint32_t l = 1; l <= cfg.depth; ++l)
                for (uint32_t i = 0; i < cfg.pesInLayer(l); ++i) {
                    TreePe n{static_cast<uint8_t>(cfg.peId({t, l, i})),
                             l == 1, {}};
                    for (uint32_t side = 0; side < 2; ++side)
                        n.in[side] = static_cast<uint8_t>(
                            l == 1 ? cfg.portBank(t, i * 2 + side)
                                   : cfg.peId({t, l - 1, i * 2 + side}));
                    order.push_back(n);
                }
    }

    void
    run()
    {
        IsaLayout lay(cfg);
        out.banks = cfg.banks;
        out.regsPerBank = cfg.regsPerBank;
        out.execLatency = cfg.pipelineStages();
        out.numRows = prog.numRows;
        out.instrs.reserve(prog.instructions.size() + 1);
        for (const Instruction &instr : prog.instructions) {
            InstrKind kind = kindOf(instr);
            out.instrs.push_back({kind, 0,
                                  size32(out.reads), size32(out.steps),
                                  size32(out.frees), size32(out.writes)});
            ++out.counts.kindCount[static_cast<size_t>(kind)];
            out.counts.instrBitsFetched += lay.lengthBits(kind);
            std::visit([&](const auto &in) { decode(in); }, instr);
        }
        out.instrs.push_back({InstrKind::Nop, 0, size32(out.reads),
                              size32(out.steps), size32(out.frees),
                              size32(out.writes)});
        out.counts.cycles =
            prog.instructions.size() + cfg.pipelineStages();

        out.inputAt.reserve(prog.inputLocation.size());
        out.outputAt.reserve(prog.outputs.size());
        for (auto [row, col] : prog.inputLocation) {
            dpu_assert(row < prog.numRows && col < cfg.banks,
                       "input location out of range");
            out.inputAt.push_back(row * cfg.banks + col);
        }
        for (const auto &o : prog.outputs) {
            dpu_assert(o.row < prog.numRows && o.col < cfg.banks,
                       "output location out of range");
            out.outputAt.push_back(o.row * cfg.banks + o.col);
        }
        out.transferBytes = hostTransferBytes(prog);
    }

  private:
    template <typename T>
    static uint32_t
    size32(const std::vector<T> &v)
    {
        return static_cast<uint32_t>(v.size());
    }

    template <typename T>
    void
    checkWidth(const std::vector<T> &field, uint32_t want) const
    {
        dpu_assert(field.size() == want,
                   "instruction field width does not match the config");
    }

    void
    setRow(uint32_t row, const char *what)
    {
        dpu_assert(row < prog.numRows, what);
        out.instrs.back().memRow = row;
    }

    void
    addRead(uint32_t slot, uint32_t bank, uint32_t addr)
    {
        dpu_assert(bank < cfg.banks && addr < cfg.regsPerBank,
                   "register index out of range");
        out.reads.push_back({static_cast<uint8_t>(slot),
                             static_cast<uint8_t>(bank),
                             static_cast<uint16_t>(addr)});
        ++out.counts.bankReads;
    }

    void
    addWrite(uint32_t bank, uint32_t slot)
    {
        out.writes.push_back(
            {static_cast<uint8_t>(bank), static_cast<uint8_t>(slot)});
        ++out.counts.bankWrites;
    }

    void decode(const NopInstr &) {}

    void
    decode(const LoadInstr &in)
    {
        checkWidth(in.enable, cfg.banks);
        setRow(in.memRow, "load row out of range");
        ++out.counts.memReads;
        for (uint32_t b = 0; b < cfg.banks; ++b)
            if (in.enable[b])
                addWrite(b, b);
    }

    void
    decode(const StoreInstr &in)
    {
        checkWidth(in.enable, cfg.banks);
        checkWidth(in.readAddr, cfg.banks);
        setRow(in.memRow, "store row out of range");
        ++out.counts.memWrites;
        for (uint32_t b = 0; b < cfg.banks; ++b)
            if (in.enable[b])
                addRead(b, b, in.readAddr[b]);
    }

    void
    decode(const Store4Instr &in)
    {
        setRow(in.memRow, "store_4 row out of range");
        ++out.counts.memWrites;
        for (const auto &s : in.slots)
            if (s.active)
                addRead(s.bank, s.bank, s.addr);
    }

    void
    decode(const Copy4Instr &in)
    {
        checkWidth(in.validRst, cfg.banks);
        // Reads first, then valid_rst, then the automatic writes —
        // the issue-stage ordering contract shared with the compiler.
        for (uint32_t k = 0; k < 4; ++k) {
            if (!in.slots[k].active)
                continue;
            addRead(k, in.slots[k].srcBank, in.slots[k].srcAddr);
            ++out.counts.crossbarTransfers;
        }
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.validRst[b])
                continue;
            // valid_rst frees the register this copy read in bank b.
            for (const auto &s : in.slots)
                if (s.active && s.srcBank == b)
                    out.frees.push_back({static_cast<uint8_t>(b),
                                         s.srcAddr});
        }
        for (uint32_t k = 0; k < 4; ++k) {
            if (!in.slots[k].active)
                continue;
            dpu_assert(in.slots[k].dstBank < cfg.banks,
                       "copy_4 destination bank out of range");
            addWrite(in.slots[k].dstBank, k);
        }
    }

    void
    decode(const ExecInstr &in)
    {
        checkWidth(in.peOp, cfg.numPes());
        checkWidth(in.inputSel, cfg.banks);
        checkWidth(in.readAddr, cfg.banks);
        checkWidth(in.validRst, cfg.banks);
        checkWidth(in.writeEnable, cfg.banks);
        checkWidth(in.outputSel, cfg.banks);

        // 1+2. The trees, layer by layer, in evaluation order. Only
        // ports an active PE consumes are read (an idle port's select
        // is a don't-care and may point at garbage); a bank read by
        // several ports costs one bank read.
        const uint32_t pe_slot = cfg.banks;
        uint64_t banks_read = 0;
        for (const TreePe &n : order) {
            PeOp op = in.peOp[n.pe];
            if (op == PeOp::Nop)
                continue;
            auto input_of = [&](uint32_t side) -> uint8_t {
                uint32_t src = n.in[side];
                if (n.leaf) {
                    uint32_t bank = in.inputSel[src];
                    dpu_assert(bank < cfg.banks, "bad crossbar select");
                    dpu_assert(in.readAddr[bank] < cfg.regsPerBank,
                               "register index out of range");
                    out.reads.push_back({static_cast<uint8_t>(src),
                                         static_cast<uint8_t>(bank),
                                         in.readAddr[bank]});
                    banks_read |= 1ull << bank;
                    ++out.counts.crossbarTransfers;
                    return static_cast<uint8_t>(src);
                }
                dpu_assert(in.peOp[src] != PeOp::Nop,
                           "active PE fed by idle child");
                return static_cast<uint8_t>(pe_slot + src);
            };
            D::Step st{D::Op::Pass, static_cast<uint8_t>(pe_slot + n.pe),
                       0, 0};
            switch (op) {
              case PeOp::Add:
              case PeOp::Mul:
                st.op = op == PeOp::Add ? D::Op::Add : D::Op::Mul;
                st.a = input_of(0);
                st.b = input_of(1);
                ++out.counts.peOperations;
                break;
              case PeOp::PassA:
              case PeOp::PassB:
                st.a = st.b = input_of(op == PeOp::PassA ? 0 : 1);
                ++out.counts.pePassThroughs;
                break;
              default:
                dpu_panic("invalid PE opcode");
            }
            out.steps.push_back(st);
        }
        out.counts.bankReads += std::popcount(banks_read);

        // 3. valid_rst lanes free the registers read this cycle.
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.validRst[b])
                continue;
            dpu_assert(banks_read >> b & 1,
                       "valid_rst on a bank this exec did not read");
            out.frees.push_back({static_cast<uint8_t>(b), in.readAddr[b]});
        }

        // 4. Output interconnect: one write per enabled bank, from
        // the PE the bank's output mux selects.
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.writeEnable[b])
                continue;
            dpu_assert(in.outputSel[b] < writers[b].size(),
                       "output mux select out of range");
            uint32_t pe = writers[b][in.outputSel[b]];
            dpu_assert(in.peOp[pe] != PeOp::Nop,
                       "store-back from an idle PE");
            addWrite(b, pe_slot + pe);
        }
    }

    /** One PE of the evaluation order; `in` holds its two leaf
     *  ports (layer 1) or its two child PEs. */
    struct TreePe
    {
        uint8_t pe;
        bool leaf;
        uint8_t in[2];
    };

    const CompiledProgram &prog;
    const ArchConfig &cfg;
    D &out;
    const WriterTable writers;
    std::vector<TreePe> order;
};

/** One register: a value plus an in-flight clock. Validity lives in
 *  the engine's per-bank free bitmask. */
struct Reg
{
    double value;
    uint64_t arrivesAt; ///< First cycle the data may be read.
};

/** The per-run state of one Machine::run. */
class Engine
{
  public:
    Engine(const D &code, const SimOptions &opts)
        : code(code), opts(opts), regs(code.regsPerBank),
          words((code.regsPerBank + 63) / 64)
    {}

    SimResult
    run(const std::vector<double> &inputs)
    {
        dpu_assert(inputs.size() == code.inputAt.size(),
                   "wrong number of input values");
        mem.assign(size_t(code.numRows) * code.banks, 0.0);
        for (size_t k = 0; k < inputs.size(); ++k)
            mem[code.inputAt[k]] = inputs[k];

        // Every register starts free. The last word of a bank keeps
        // only its low R % 64 bits, so the priority encoder never
        // hands out an address past R.
        regFile.resize(size_t(code.banks) * regs);
        freeMask.assign(size_t(code.banks) * words, ~0ull);
        if (regs % 64)
            for (uint32_t b = 0; b < code.banks; ++b)
                freeMask[size_t(b) * words + words - 1] =
                    (1ull << (regs % 64)) - 1;

        stats = code.counts;
        // A zero interval would mean "sample every cycle modulo
        // nothing" — treat it as 1 instead of dividing by zero.
        stats.traceStride = opts.traceOccupancy
                                ? std::max<uint64_t>(opts.traceInterval, 1)
                                : 0;

        for (now = 0; now < code.size(); ++now) {
            if (opts.traceOccupancy && now % stats.traceStride == 0)
                sampleOccupancy();
            issue(code.instrs[now], code.instrs[now + 1]);
            stats.peakLiveRegisters =
                std::max(stats.peakLiveRegisters, live);
        }

        // Host↔rank transfer for this run: one dispatch moving the
        // input vector down and the output vector back. Statically
        // determined by the program, so every evaluator tier can
        // reproduce it exactly; 0 under the default free model.
        stats.transferCycles =
            opts.transfer.batchCycles(code.transferBytes, 1);

        // Every register must have been freed by a final read; a
        // leak means the compiler lost track of a value.
        dpu_assert(live == 0, "register leak at end");

        SimResult res;
        res.stats = std::move(stats);
        res.outputs.reserve(code.outputAt.size());
        for (uint32_t at : code.outputAt)
            res.outputs.push_back(mem[at]);
        return res;
    }

  private:
    bool
    isFree(uint32_t bank, uint32_t addr) const
    {
        return freeMask[size_t(bank) * words + addr / 64] >> (addr % 64) &
               1;
    }

    /** Read a register, enforcing validity and pipeline timing. */
    double
    readReg(uint32_t bank, uint32_t addr) const
    {
        dpu_assert(!isFree(bank, addr), "read of invalid register");
        const Reg &r = regFile[size_t(bank) * regs + addr];
        dpu_assert(r.arrivesAt <= now,
                   "pipeline hazard: data still in flight");
        return r.value;
    }

    /** Clear a valid bit (valid_rst semantics). */
    void
    freeReg(uint32_t bank, uint32_t addr)
    {
        dpu_assert(!isFree(bank, addr), "valid_rst of an empty register");
        freeMask[size_t(bank) * words + addr / 64] |= 1ull << (addr % 64);
        --live;
    }

    /** Automatic write: priority-encode the lowest free address. */
    void
    writeReg(uint32_t bank, double value, uint32_t latency)
    {
        uint64_t *mask = &freeMask[size_t(bank) * words];
        for (uint32_t w = 0; w < words; ++w) {
            if (!mask[w])
                continue;
            uint32_t addr = w * 64 + std::countr_zero(mask[w]);
            mask[w] &= mask[w] - 1;
            regFile[size_t(bank) * regs + addr] = {value, now + latency};
            ++live;
            return;
        }
        dpu_panic("write to a full register bank");
    }

    void
    sampleOccupancy()
    {
        std::vector<uint32_t> row(code.banks, regs);
        for (uint32_t b = 0; b < code.banks; ++b)
            for (uint32_t w = 0; w < words; ++w)
                row[b] -= std::popcount(freeMask[size_t(b) * words + w]);
        stats.occupancyTrace.push_back(std::move(row));
        if (opts.maxTraceSamples &&
            stats.occupancyTrace.size() >= opts.maxTraceSamples) {
            // Stride-doubling decimation: drop the odd-index rows
            // and sample half as often from here on, so a run of any
            // length keeps a whole-run trace within the bound
            // (instead of the trace growing without limit, or
            // truncation losing the tail).
            auto &trace = stats.occupancyTrace;
            for (size_t i = 1; 2 * i < trace.size(); ++i)
                trace[i] = std::move(trace[2 * i]);
            trace.resize((trace.size() + 1) / 2);
            stats.traceStride *= 2;
        }
    }

    void
    issue(const D::Instr &in, const D::Instr &next)
    {
        switch (in.kind) {
          case InstrKind::Nop:
            return;
          case InstrKind::Load: {
            const double *row = &mem[size_t(in.memRow) * code.banks];
            for (uint32_t k = in.writes; k < next.writes; ++k)
                writeReg(code.writes[k].bank, row[code.writes[k].slot], 2);
            return;
          }
          case InstrKind::Store:
          case InstrKind::Store4: {
            // Stores are final reads: each lane frees what it read.
            double *row = &mem[size_t(in.memRow) * code.banks];
            for (uint32_t k = in.reads; k < next.reads; ++k) {
                const D::Read &r = code.reads[k];
                row[r.slot] = readReg(r.bank, r.addr);
                freeReg(r.bank, r.addr);
            }
            return;
          }
          case InstrKind::Copy4:
          case InstrKind::Exec:
            break;
        }

        // Copy and exec: reads, PE steps, valid_rst frees, writes.
        for (uint32_t k = in.reads; k < next.reads; ++k) {
            const D::Read &r = code.reads[k];
            val[r.slot] = readReg(r.bank, r.addr);
        }
        for (uint32_t k = in.steps; k < next.steps; ++k) {
            const D::Step &s = code.steps[k];
            switch (s.op) {
              case D::Op::Add: val[s.out] = val[s.a] + val[s.b]; break;
              case D::Op::Mul: val[s.out] = val[s.a] * val[s.b]; break;
              case D::Op::Pass: val[s.out] = val[s.a]; break;
            }
        }
        for (uint32_t k = in.frees; k < next.frees; ++k)
            freeReg(code.frees[k].bank, code.frees[k].addr);
        uint32_t latency =
            in.kind == InstrKind::Exec ? code.execLatency : 2;
        for (uint32_t k = in.writes; k < next.writes; ++k)
            writeReg(code.writes[k].bank, val[code.writes[k].slot],
                     latency);
    }

    const D &code;
    const SimOptions &opts;
    const uint32_t regs;  ///< R.
    const uint32_t words; ///< 64-bit free-mask words per bank.

    std::vector<double> mem;      ///< numRows x B, row-major.
    std::vector<Reg> regFile;     ///< B x R, bank-major.
    std::vector<uint64_t> freeMask; ///< B x words; set bit = free.
    uint64_t live = 0;            ///< Valid registers, all banks.
    uint64_t now = 0;
    std::array<double, D::kMaxSlots> val{}; ///< Operand slots.
    SimStats stats;
};

} // namespace

CoreSet
CoreSet::firstN(uint32_t n)
{
    CoreSet s;
    s.ids.resize(n);
    for (uint32_t k = 0; k < n; ++k)
        s.ids[k] = k;
    return s;
}

void
CoreSet::validate() const
{
    for (size_t i = 0; i < ids.size(); ++i)
        for (size_t j = i + 1; j < ids.size(); ++j)
            dpu_assert(ids[i] != ids[j],
                       "core id " + std::to_string(ids[i]) +
                           " appears twice in a CoreSet");
}

Machine::Machine(const CompiledProgram &program, SimOptions options)
    : opts(options)
{
    program.cfg.check();
    auto decoded = std::make_shared<DecodedProgram>();
    Decoder(program, *decoded).run();
    code = std::move(decoded);
}

SimResult
Machine::run(const std::vector<double> &input_values) const
{
    return Engine(*code, opts).run(input_values);
}

uint64_t
Machine::transferBytes() const
{
    return code->transferBytes;
}

SimResult
runAndCheck(const CompiledProgram &program, const Dag &dag,
            const std::vector<double> &input_values, SimOptions options)
{
    Machine m(program, options);
    SimResult res = m.run(input_values);

    // Reference: evaluate the same binarized DAG the compiler saw.
    BinarizeResult bin = binarize(dag);
    auto ref = evaluate(bin.dag, input_values);

    dpu_assert(res.outputs.size() == program.outputs.size(),
               "output count mismatch");
    for (size_t k = 0; k < program.outputs.size(); ++k) {
        NodeId node = program.outputs[k].node;
        double want = ref[node];
        double got = res.outputs[k];
        double tol = 1e-12 * std::max(1.0, std::abs(want));
        if (std::abs(got - want) > tol) {
            dpu_panic("functional mismatch at output node " +
                      std::to_string(node) + ": simulator " +
                      std::to_string(got) + " vs reference " +
                      std::to_string(want));
        }
    }
    return res;
}

} // namespace dpu
