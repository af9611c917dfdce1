#include "compiler/verify.hh"

#include <algorithm>
#include <sstream>

#include "arch/interconnect.hh"

namespace dpu {

namespace {

/** Recording stops (but replay continues) past this many
 *  diagnostics, so garbage input cannot build an unbounded report. */
constexpr size_t kMaxDiagnostics = 256;

/** Shared diagnostic sink with the recording cap. */
class Sink
{
  public:
    explicit Sink(VerifyReport &report) : report(report) {}

    void
    add(VerifyCode code, uint64_t instr, std::string message,
        VerifySeverity severity = VerifySeverity::Error)
    {
        if (report.diagnostics.size() >= kMaxDiagnostics) {
            report.truncated = true;
            return;
        }
        report.diagnostics.push_back(
            {severity, code, instr, std::move(message)});
    }

  private:
    VerifyReport &report;
};

std::string
regName(uint32_t bank, uint32_t addr)
{
    return "b" + std::to_string(bank) + "@" + std::to_string(addr);
}

// ------------------------------------------------------------------ //
// IR-level pass.                                                     //
// ------------------------------------------------------------------ //

class IrVerifier
{
  public:
    IrVerifier(const IrProgram &ir, const ArchConfig &cfg,
               const VerifyIrOptions &options, VerifyReport &report)
        : ir(ir), cfg(cfg), opt(options), sink(report)
    {}

    void
    run()
    {
        written.assign(ir.instances.size(), false);
        freed.assign(ir.instances.size(), false);
        readableAt.assign(ir.instances.size(), 0);

        checkInstanceTable();
        checkIoLayout();
        for (uint64_t t = 0; t < ir.instrs.size(); ++t)
            checkInstr(t, ir.instrs[t]);
        for (size_t id = 0; id < ir.instances.size(); ++id) {
            if (written[id] && !freed[id])
                sink.add(VerifyCode::RegisterLeak, kVerifyNoInstr,
                         "instance #" + std::to_string(id) +
                             " (bank " +
                             std::to_string(ir.instances[id].bank) +
                             ") is written but never freed by a "
                             "last read");
        }
    }

  private:
    void
    checkInstanceTable()
    {
        for (size_t id = 0; id < ir.instances.size(); ++id) {
            if (ir.instances[id].bank >= cfg.banks)
                sink.add(VerifyCode::MalformedInstruction,
                         kVerifyNoInstr,
                         "instance #" + std::to_string(id) +
                             " lives in bank " +
                             std::to_string(ir.instances[id].bank) +
                             " but the machine has " +
                             std::to_string(cfg.banks) + " banks");
        }
    }

    void
    checkIoLayout()
    {
        for (size_t k = 0; k < ir.inputLocation.size(); ++k) {
            auto [row, col] = ir.inputLocation[k];
            if (row >= ir.inputRows || col >= cfg.banks)
                sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                         "input " + std::to_string(k) + " at (" +
                             std::to_string(row) + ", " +
                             std::to_string(col) +
                             ") outside the input region (" +
                             std::to_string(ir.inputRows) + " rows x " +
                             std::to_string(cfg.banks) + " cols)");
        }
        // Sinks that are Input nodes keep their input-region location
        // (a pass-through), so outputs may land anywhere in the io
        // rows — only past-the-end rows are illegal.
        uint32_t row_end = ir.inputRows + ir.outputRows;
        for (size_t k = 0; k < ir.outputs.size(); ++k) {
            const auto &o = ir.outputs[k];
            if (o.row >= row_end || o.col >= cfg.banks)
                sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                         "output " + std::to_string(k) + " at (" +
                             std::to_string(o.row) + ", " +
                             std::to_string(o.col) +
                             ") outside the io region (" +
                             std::to_string(row_end) + " rows x " +
                             std::to_string(cfg.banks) + " cols)");
        }
    }

    /** Look up a read/write target; false = unusable (diagnosed). */
    bool
    instanceOk(uint64_t t, InstanceId id)
    {
        if (id == invalidInstance || id >= ir.instances.size()) {
            sink.add(VerifyCode::MalformedInstruction, t,
                     "reference to nonexistent instance #" +
                         std::to_string(id));
            return false;
        }
        return ir.instances[id].bank < cfg.banks;
    }

    void
    checkReads(uint64_t t, const IrInstr &in)
    {
        std::vector<uint32_t> banks_read;
        for (const IrRead &r : in.reads) {
            if (!instanceOk(t, r.inst))
                continue;
            uint32_t bank = ir.instances[r.inst].bank;
            if (std::find(banks_read.begin(), banks_read.end(), bank) !=
                banks_read.end())
                sink.add(VerifyCode::BankConflict, t,
                         "two reads of bank " + std::to_string(bank) +
                             " in one instruction (one read port per "
                             "bank)");
            banks_read.push_back(bank);

            if (freed[r.inst])
                sink.add(VerifyCode::ReadAfterFree, t,
                         "read of instance #" + std::to_string(r.inst) +
                             " (bank " + std::to_string(bank) +
                             ") after its last-read free");
            else if (!written[r.inst])
                sink.add(VerifyCode::UseBeforeDef, t,
                         "read of instance #" + std::to_string(r.inst) +
                             " (bank " + std::to_string(bank) +
                             ") before any write");
            else if (opt.hazardsResolved && readableAt[r.inst] > t)
                sink.add(VerifyCode::PipelineHazard, t,
                         "read of instance #" + std::to_string(r.inst) +
                             " while its data is in flight until t=" +
                             std::to_string(readableAt[r.inst]));
            if (r.lastRead)
                freed[r.inst] = true;
        }
    }

    void
    checkWrites(uint64_t t, const IrInstr &in)
    {
        std::vector<uint32_t> banks_written;
        for (const IrWrite &w : in.writes) {
            if (!instanceOk(t, w.inst))
                continue;
            uint32_t bank = ir.instances[w.inst].bank;
            if (std::find(banks_written.begin(), banks_written.end(),
                          bank) != banks_written.end())
                sink.add(VerifyCode::BankConflict, t,
                         "two writes of bank " + std::to_string(bank) +
                             " in one instruction (one write per bank "
                             "per cycle)");
            banks_written.push_back(bank);

            if (written[w.inst])
                sink.add(VerifyCode::DoubleWrite, t,
                         "instance #" + std::to_string(w.inst) +
                             " is written twice (instances are "
                             "single-assignment)");
            written[w.inst] = true;
            readableAt[w.inst] = t + writeLatency(in.kind, cfg);

            if (in.kind == InstrKind::Exec) {
                uint32_t pe = ir.instances[w.inst].writerPe;
                if (pe >= cfg.numPes()) {
                    sink.add(VerifyCode::SelectOutOfBounds, t,
                             "exec write of instance #" +
                                 std::to_string(w.inst) +
                                 " claims writer PE " +
                                 std::to_string(pe) + " of " +
                                 std::to_string(cfg.numPes()));
                } else {
                    auto writable = writableBanks(cfg, pe);
                    if (std::find(writable.begin(), writable.end(),
                                  bank) == writable.end())
                        sink.add(VerifyCode::SelectOutOfBounds, t,
                                 "PE " + std::to_string(pe) +
                                     " cannot write bank " +
                                     std::to_string(bank) +
                                     " under the " +
                                     std::string(interconnectName(
                                         cfg.outputNet)) +
                                     " output interconnect");
                }
            }
        }
    }

    void
    checkInstr(uint64_t t, const IrInstr &in)
    {
        switch (in.kind) {
          case InstrKind::Nop:
            break;

          case InstrKind::Load:
            if (in.memRow >= ir.inputRows)
                sink.add(VerifyCode::RowOutOfBounds, t,
                         "load of row " + std::to_string(in.memRow) +
                             " outside the input region of " +
                             std::to_string(ir.inputRows) + " rows");
            break;

          case InstrKind::Store:
          case InstrKind::Store4: {
            uint32_t row_end = ir.inputRows + ir.outputRows;
            if (in.memRow < ir.inputRows || in.memRow >= row_end)
                sink.add(VerifyCode::RowOutOfBounds, t,
                         "store of row " + std::to_string(in.memRow) +
                             " outside the output region (rows [" +
                             std::to_string(ir.inputRows) + ", " +
                             std::to_string(row_end) + "))");
            if (in.kind == InstrKind::Store4 && in.reads.size() > 4)
                sink.add(VerifyCode::MalformedInstruction, t,
                         "store_4 with " +
                             std::to_string(in.reads.size()) +
                             " reads (4 slots)");
            for (const IrRead &r : in.reads)
                if (!r.lastRead)
                    sink.add(VerifyCode::MalformedInstruction, t,
                             "store read of instance #" +
                                 std::to_string(r.inst) +
                                 " does not free its source (stores "
                                 "are final reads)");
            break;
          }

          case InstrKind::Copy4:
            if (in.reads.size() != in.writes.size() ||
                in.reads.size() > 4)
                sink.add(VerifyCode::MalformedInstruction, t,
                         "copy_4 with " +
                             std::to_string(in.reads.size()) +
                             " reads / " +
                             std::to_string(in.writes.size()) +
                             " writes (paired, at most 4)");
            break;

          case InstrKind::Exec:
            if (in.inputSel.size() != cfg.banks) {
                sink.add(VerifyCode::MalformedInstruction, t,
                         "exec with " +
                             std::to_string(in.inputSel.size()) +
                             " crossbar selects for " +
                             std::to_string(cfg.banks) + " ports");
            } else {
                for (uint32_t port = 0; port < cfg.banks; ++port)
                    if (in.inputSel[port] >= cfg.banks)
                        sink.add(VerifyCode::SelectOutOfBounds, t,
                                 "crossbar select " +
                                     std::to_string(in.inputSel[port]) +
                                     " on port " + std::to_string(port) +
                                     " of " + std::to_string(cfg.banks) +
                                     " banks");
            }
            if (in.blockId >= opt.numBlocks)
                sink.add(VerifyCode::BlockOutOfBounds, t,
                         "exec references block " +
                             std::to_string(in.blockId) + " of " +
                             std::to_string(opt.numBlocks));
            break;
        }

        checkReads(t, in);
        checkWrites(t, in);
    }

    const IrProgram &ir;
    const ArchConfig &cfg;
    const VerifyIrOptions &opt;
    Sink sink;

    std::vector<bool> written;
    std::vector<bool> freed;
    std::vector<uint64_t> readableAt;
};

// ------------------------------------------------------------------ //
// Program-level pass.                                                //
// ------------------------------------------------------------------ //

/** Abstract register slot: validity + history + pipeline clock. */
struct Slot
{
    bool valid = false;
    bool everFreed = false; ///< Distinguishes V001 from V002.
    uint64_t readableAt = 0;
};

class ProgramVerifier
{
  public:
    ProgramVerifier(const CompiledProgram &prog, VerifyReport &report)
        : prog(prog), cfg(prog.cfg), sink(report)
    {}

    void
    run()
    {
        // A corrupt image can carry an impossible ArchConfig; without
        // a valid one none of the derived parameters below mean
        // anything, so bail out with a single diagnostic.
        try {
            cfg.check();
        } catch (const std::exception &e) {
            sink.add(VerifyCode::MalformedInstruction, kVerifyNoInstr,
                     std::string("illegal ArchConfig: ") + e.what());
            return;
        }

        banks.assign(cfg.banks,
                     std::vector<Slot>(cfg.regsPerBank));
        bankWriters = writerTable(cfg);

        checkIoLayout();
        for (now = 0; now < prog.instructions.size(); ++now)
            std::visit([&](const auto &in) { check(in); },
                       prog.instructions[now]);
        checkLeaks();
        checkStats();
    }

  private:
    void
    checkIoLayout()
    {
        for (size_t k = 0; k < prog.inputLocation.size(); ++k) {
            auto [row, col] = prog.inputLocation[k];
            if (row >= prog.numRows || col >= cfg.banks)
                sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                         "input " + std::to_string(k) + " at (" +
                             std::to_string(row) + ", " +
                             std::to_string(col) +
                             ") outside data memory (" +
                             std::to_string(prog.numRows) + " rows x " +
                             std::to_string(cfg.banks) + " cols)");
        }
        for (size_t k = 0; k < prog.outputs.size(); ++k) {
            const auto &o = prog.outputs[k];
            if (o.row >= prog.numRows || o.col >= cfg.banks)
                sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                         "output " + std::to_string(k) + " at (" +
                             std::to_string(o.row) + ", " +
                             std::to_string(o.col) +
                             ") outside data memory (" +
                             std::to_string(prog.numRows) + " rows x " +
                             std::to_string(cfg.banks) + " cols)");
        }
        if (prog.numRows > cfg.dataMemRows)
            sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                     "program uses " + std::to_string(prog.numRows) +
                         " data-memory rows but the configuration "
                         "provides " + std::to_string(cfg.dataMemRows),
                     VerifySeverity::Warning);
    }

    /** Read a register, diagnosing validity and pipeline timing. */
    void
    readReg(uint32_t bank, uint32_t addr)
    {
        if (bank >= cfg.banks || addr >= cfg.regsPerBank) {
            sink.add(VerifyCode::SelectOutOfBounds, now,
                     "read of register " + regName(bank, addr) +
                         " outside the " + std::to_string(cfg.banks) +
                         "x" + std::to_string(cfg.regsPerBank) +
                         " register file");
            return;
        }
        const Slot &s = banks[bank][addr];
        if (!s.valid) {
            if (s.everFreed)
                sink.add(VerifyCode::ReadAfterFree, now,
                         "read of freed register " +
                             regName(bank, addr));
            else
                sink.add(VerifyCode::UseBeforeDef, now,
                         "read of never-written register " +
                             regName(bank, addr));
            return;
        }
        if (s.readableAt > now)
            sink.add(VerifyCode::PipelineHazard, now,
                     "read of register " + regName(bank, addr) +
                         " while its data is in flight until cycle " +
                         std::to_string(s.readableAt));
    }

    /** valid_rst semantics: free a register, diagnosing double frees. */
    void
    freeReg(uint32_t bank, uint32_t addr)
    {
        if (bank >= cfg.banks || addr >= cfg.regsPerBank)
            return; // readReg already diagnosed the range
        Slot &s = banks[bank][addr];
        if (!s.valid) {
            sink.add(VerifyCode::DoubleFree, now,
                     "valid_rst of empty register " +
                         regName(bank, addr));
            return;
        }
        s.valid = false;
        s.everFreed = true;
    }

    /** Automatic write: lowest free address, diagnosing overflow. */
    void
    writeReg(uint32_t bank, uint32_t latency)
    {
        auto &regs = banks[bank];
        for (uint32_t a = 0; a < cfg.regsPerBank; ++a) {
            if (!regs[a].valid) {
                regs[a].valid = true;
                regs[a].readableAt = now + latency;
                return;
            }
        }
        sink.add(VerifyCode::RegFileOverflow, now,
                 "write to full bank " + std::to_string(bank) +
                     " (occupancy would exceed R=" +
                     std::to_string(cfg.regsPerBank) + ")");
    }

    void
    checkRow(uint32_t row, const char *what)
    {
        if (row >= prog.numRows)
            sink.add(VerifyCode::RowOutOfBounds, now,
                     std::string(what) + " of row " +
                         std::to_string(row) + " outside the " +
                         std::to_string(prog.numRows) +
                         " data-memory rows this program uses");
    }

    /** Structural size check; false skips the replay of the instr. */
    bool
    sized(size_t got, size_t want, const char *field)
    {
        if (got == want)
            return true;
        sink.add(VerifyCode::MalformedInstruction, now,
                 std::string(field) + " has " + std::to_string(got) +
                     " lanes for " + std::to_string(want) + " banks");
        return false;
    }

    void check(const NopInstr &) {}

    void
    check(const LoadInstr &in)
    {
        checkRow(in.memRow, "load");
        if (!sized(in.enable.size(), cfg.banks, "load enable"))
            return;
        for (uint32_t b = 0; b < cfg.banks; ++b)
            if (in.enable[b])
                writeReg(b, 2);
    }

    void
    check(const StoreInstr &in)
    {
        checkRow(in.memRow, "store");
        if (!sized(in.enable.size(), cfg.banks, "store enable") ||
            !sized(in.readAddr.size(), cfg.banks, "store readAddr"))
            return;
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.enable[b])
                continue;
            readReg(b, in.readAddr[b]);
            freeReg(b, in.readAddr[b]); // stores are final reads
        }
    }

    void
    check(const Store4Instr &in)
    {
        checkRow(in.memRow, "store_4");
        std::vector<uint32_t> banks_read;
        for (const auto &s : in.slots) {
            if (!s.active)
                continue;
            if (std::find(banks_read.begin(), banks_read.end(),
                          s.bank) != banks_read.end())
                sink.add(VerifyCode::BankConflict, now,
                         "two store_4 slots read bank " +
                             std::to_string(s.bank) +
                             " (one read port per bank)");
            banks_read.push_back(s.bank);
            readReg(s.bank, s.addr);
            freeReg(s.bank, s.addr);
        }
    }

    void
    check(const Copy4Instr &in)
    {
        if (!sized(in.validRst.size(), cfg.banks, "copy_4 validRst"))
            return;
        // Reads first, then valid_rst, then the automatic writes —
        // the issue-stage ordering contract shared with the machine.
        std::vector<uint32_t> banks_read, banks_written;
        for (const auto &s : in.slots) {
            if (!s.active)
                continue;
            if (std::find(banks_read.begin(), banks_read.end(),
                          s.srcBank) != banks_read.end())
                sink.add(VerifyCode::BankConflict, now,
                         "two copy_4 slots read bank " +
                             std::to_string(s.srcBank) +
                             " (one read port per bank)");
            banks_read.push_back(s.srcBank);
            readReg(s.srcBank, s.srcAddr);
        }
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.validRst[b])
                continue;
            bool any = false;
            for (const auto &s : in.slots)
                if (s.active && s.srcBank == b) {
                    freeReg(b, s.srcAddr);
                    any = true;
                }
            if (!any)
                sink.add(VerifyCode::DoubleFree, now,
                         "copy_4 valid_rst on bank " +
                             std::to_string(b) +
                             " which no slot reads (frees nothing)");
        }
        for (const auto &s : in.slots) {
            if (!s.active)
                continue;
            if (s.dstBank >= cfg.banks) {
                sink.add(VerifyCode::SelectOutOfBounds, now,
                         "copy_4 destination bank " +
                             std::to_string(s.dstBank) + " of " +
                             std::to_string(cfg.banks));
                continue;
            }
            if (std::find(banks_written.begin(), banks_written.end(),
                          s.dstBank) != banks_written.end())
                sink.add(VerifyCode::BankConflict, now,
                         "two copy_4 slots write bank " +
                             std::to_string(s.dstBank) +
                             " (one write per bank per cycle)");
            banks_written.push_back(s.dstBank);
            writeReg(s.dstBank, 2);
        }
    }

    void
    check(const ExecInstr &in)
    {
        if (!sized(in.peOp.size(), cfg.numPes(), "exec peOp") ||
            !sized(in.inputSel.size(), cfg.banks, "exec inputSel") ||
            !sized(in.readAddr.size(), cfg.banks, "exec readAddr") ||
            !sized(in.validRst.size(), cfg.banks, "exec validRst") ||
            !sized(in.writeEnable.size(), cfg.banks,
                   "exec writeEnable") ||
            !sized(in.outputSel.size(), cfg.banks, "exec outputSel"))
            return;

        // 1. The banks this exec actually reads: the crossbar selects
        // of the ports consumed by active leaf PEs (an idle port's
        // select is a don't-care), exactly as the machine reads them.
        std::vector<bool> bank_read(cfg.banks, false);
        auto read_port = [&](uint32_t tree, uint32_t local) {
            uint32_t port = cfg.portBank(tree, local);
            uint32_t bank = in.inputSel[port];
            if (bank >= cfg.banks) {
                sink.add(VerifyCode::SelectOutOfBounds, now,
                         "crossbar select " + std::to_string(bank) +
                             " on port " + std::to_string(port) +
                             " of " + std::to_string(cfg.banks) +
                             " banks");
                return;
            }
            if (!bank_read[bank]) {
                bank_read[bank] = true;
                readReg(bank, in.readAddr[bank]);
            }
        };
        for (uint32_t t = 0; t < cfg.trees(); ++t) {
            for (uint32_t l = 1; l <= cfg.depth; ++l) {
                for (uint32_t i = 0; i < cfg.pesInLayer(l); ++i) {
                    uint32_t pe = cfg.peId({t, l, i});
                    PeOp op = in.peOp[pe];
                    if (op == PeOp::Nop)
                        continue;
                    bool use_a = op != PeOp::PassB;
                    bool use_b = op != PeOp::PassA;
                    for (uint32_t side = 0; side < 2; ++side) {
                        if (side == 0 ? !use_a : !use_b)
                            continue;
                        if (l == 1) {
                            read_port(t, i * 2 + side);
                        } else {
                            uint32_t child =
                                cfg.peId({t, l - 1, i * 2 + side});
                            if (in.peOp[child] == PeOp::Nop)
                                sink.add(
                                    VerifyCode::MalformedInstruction,
                                    now,
                                    "active PE " + std::to_string(pe) +
                                        " is fed by idle PE " +
                                        std::to_string(child));
                        }
                    }
                }
            }
        }

        // 2. valid_rst lanes must free registers read this cycle.
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.validRst[b])
                continue;
            if (!bank_read[b]) {
                sink.add(VerifyCode::DoubleFree, now,
                         "exec valid_rst on bank " + std::to_string(b) +
                             " which this exec does not read (frees "
                             "nothing)");
                continue;
            }
            freeReg(b, in.readAddr[b]);
        }

        // 3. Output interconnect: one write per enabled bank, from an
        // active PE the bank's output mux can actually select.
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            if (!in.writeEnable[b])
                continue;
            const auto &writers = bankWriters[b];
            if (in.outputSel[b] >= writers.size()) {
                sink.add(VerifyCode::SelectOutOfBounds, now,
                         "output mux select " +
                             std::to_string(in.outputSel[b]) +
                             " on bank " + std::to_string(b) + " of " +
                             std::to_string(writers.size()) +
                             " writer PEs");
                continue;
            }
            uint32_t pe = writers[in.outputSel[b]];
            if (in.peOp[pe] == PeOp::Nop)
                sink.add(VerifyCode::MalformedInstruction, now,
                         "bank " + std::to_string(b) +
                             " stores back from idle PE " +
                             std::to_string(pe));
            writeReg(b, cfg.pipelineStages());
        }
    }

    void
    checkLeaks()
    {
        for (uint32_t b = 0; b < cfg.banks; ++b) {
            uint32_t live = 0;
            for (const Slot &s : banks[b])
                live += s.valid;
            if (live)
                sink.add(VerifyCode::RegisterLeak, kVerifyNoInstr,
                         "bank " + std::to_string(b) + " ends with " +
                             std::to_string(live) +
                             " register(s) still valid (never freed)");
        }
    }

    void
    mismatch(const std::string &what, uint64_t want, uint64_t got)
    {
        sink.add(VerifyCode::StatsMismatch, kVerifyNoInstr,
                 "stats." + what + " claims " + std::to_string(got) +
                     " but the program has " + std::to_string(want));
    }

    void
    checkStats()
    {
        const CompileStats &s = prog.stats;
        std::array<uint64_t, 6> kinds{};
        uint64_t pe_ops = 0;
        for (const Instruction &in : prog.instructions) {
            ++kinds[static_cast<size_t>(kindOf(in))];
            if (const auto *ex = std::get_if<ExecInstr>(&in))
                for (PeOp op : ex->peOp)
                    if (op == PeOp::Add || op == PeOp::Mul)
                        ++pe_ops;
        }
        for (size_t k = 0; k < kinds.size(); ++k)
            if (kinds[k] != s.kindCount[k])
                mismatch("kindCount[" +
                             std::string(kindName(
                                 static_cast<InstrKind>(k))) +
                             "]",
                         kinds[k], s.kindCount[k]);
        if (s.instructions != prog.instructions.size())
            mismatch("instructions", prog.instructions.size(),
                     s.instructions);
        uint64_t cycles =
            prog.instructions.size() + cfg.pipelineStages();
        if (s.cycles != cycles)
            mismatch("cycles", cycles, s.cycles);
        if (s.nops != kinds[static_cast<size_t>(InstrKind::Nop)])
            mismatch("nops",
                     kinds[static_cast<size_t>(InstrKind::Nop)],
                     s.nops);
        if (s.peOpsExecuted != pe_ops)
            mismatch("peOpsExecuted", pe_ops, s.peOpsExecuted);
        uint64_t bits = programSizeBits(cfg, prog.instructions);
        if (s.programBits != bits)
            mismatch("programBits", bits, s.programBits);
        uint64_t data_bits = uint64_t(prog.numRows) * cfg.banks * 32;
        if (s.dataBits != data_bits)
            mismatch("dataBits", data_bits, s.dataBits);
    }

    const CompiledProgram &prog;
    const ArchConfig &cfg;
    Sink sink;

    std::vector<std::vector<Slot>> banks;
    WriterTable bankWriters;
    uint64_t now = 0;
};

} // namespace

const char *
verifyCodeName(VerifyCode code)
{
    switch (code) {
      case VerifyCode::UseBeforeDef: return "V001-use-before-def";
      case VerifyCode::ReadAfterFree: return "V002-read-after-free";
      case VerifyCode::BankConflict: return "V003-bank-conflict";
      case VerifyCode::RegFileOverflow: return "V004-regfile-overflow";
      case VerifyCode::RegisterLeak: return "V005-register-leak";
      case VerifyCode::DoubleFree: return "V006-double-free";
      case VerifyCode::DoubleWrite: return "V007-double-write";
      case VerifyCode::RowOutOfBounds: return "V010-row-out-of-bounds";
      case VerifyCode::IoLocOutOfBounds:
        return "V011-io-location-out-of-bounds";
      case VerifyCode::SelectOutOfBounds:
        return "V020-select-out-of-bounds";
      case VerifyCode::BlockOutOfBounds:
        return "V021-block-out-of-bounds";
      case VerifyCode::MalformedInstruction:
        return "V022-malformed-instruction";
      case VerifyCode::PipelineHazard: return "V030-pipeline-hazard";
      case VerifyCode::StatsMismatch: return "V040-stats-mismatch";
    }
    return "V???";
}

std::string
Diagnostic::format() const
{
    std::string where =
        instrIndex == kVerifyNoInstr
            ? std::string("program")
            : "instr " + std::to_string(instrIndex);
    const char *sev =
        severity == VerifySeverity::Error ? "error" : "warning";
    return where + ": " + sev + " " + verifyCodeName(code) + ": " +
           message;
}

size_t
VerifyReport::errorCount() const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        n += d.severity == VerifySeverity::Error;
    return n;
}

std::string
VerifyReport::summary() const
{
    size_t errors = errorCount();
    size_t warnings = diagnostics.size() - errors;
    std::ostringstream os;
    os << errors << " error(s), " << warnings << " warning(s)";
    if (truncated)
        os << " (diagnostics truncated)";
    return os.str();
}

std::string
VerifyReport::toString(size_t maxShown) const
{
    std::ostringstream os;
    os << summary();
    size_t shown = 0;
    for (const Diagnostic &d : diagnostics) {
        if (maxShown && shown++ >= maxShown) {
            os << "\n  ... " << (diagnostics.size() - maxShown)
               << " more";
            break;
        }
        os << "\n  " << d.format();
    }
    return os.str();
}

VerifyError::VerifyError(const std::string &stage, VerifyReport report_in)
    : PanicError("program verification failed after " + stage + ": " +
                 report_in.toString()),
      failedStage(stage), failedReport(std::move(report_in))
{}

VerifyReport
verifyIr(const IrProgram &ir, const ArchConfig &cfg,
         const VerifyIrOptions &options)
{
    VerifyReport report;
    IrVerifier(ir, cfg, options, report).run();
    return report;
}

VerifyReport
verifyProgram(const CompiledProgram &prog)
{
    VerifyReport report;
    ProgramVerifier(prog, report).run();
    return report;
}

void
throwIfVerifyErrors(const VerifyReport &report, const std::string &stage)
{
    if (report.errorCount())
        throw VerifyError(stage, report);
}

} // namespace dpu
