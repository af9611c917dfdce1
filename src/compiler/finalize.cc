#include "compiler/finalize.hh"

#include <algorithm>
#include <limits>

#include "arch/interconnect.hh"
#include "support/bitvec.hh"

namespace dpu {
namespace detail {

constexpr uint32_t noAddr = static_cast<uint32_t>(-1);

/** Mutable run-time state of one register instance. */
struct InstState
{
    uint32_t addr = noAddr;     ///< Current register, noAddr if absent.
    uint64_t readableAt = 0;    ///< Issue time when data has landed.
    uint32_t spillRow = noAddr; ///< Memory copy (chunk-relative row).
    uint32_t nextUseIdx = 0;    ///< Cursor into `uses`.
    std::vector<uint32_t> uses; ///< IR indices of reads, ascending.
};

class FinalizerImpl
{
  public:
    FinalizerImpl(const ArchConfig &cfg,
                  ProgramFinalizer::BlockResolver blocks)
        : cfg(cfg), writers(writerTable(cfg)), blockAt(std::move(blocks))
    {
        occupant.assign(cfg.banks,
                        std::vector<InstanceId>(cfg.regsPerBank,
                                                invalidInstance));
        valid.assign(cfg.banks, BitVec(cfg.regsPerBank));
        spillCount.assign(cfg.banks, 0);
    }

    void
    appendChunk(const IrProgram &ir, size_t fromInstr, size_t fromInstance)
    {
        instances.insert(instances.end(),
                         ir.instances.begin() +
                             static_cast<ptrdiff_t>(fromInstance),
                         ir.instances.end());
        state.resize(instances.size());
        for (size_t i = fromInstr; i < ir.instrs.size(); ++i)
            for (const IrRead &r : ir.instrs[i].reads)
                state[r.inst].uses.push_back(static_cast<uint32_t>(i));

        curIr = &ir;
        chunkEnd = static_cast<uint32_t>(ir.instrs.size());
        for (irIndex = static_cast<uint32_t>(fromInstr);
             irIndex < chunkEnd; ++irIndex) {
            prefetchReloads();
            emit(ir.instrs[irIndex]);
        }
        curIr = nullptr;
    }

    CompiledProgram
    finish(const IrProgram &ir, size_t numBlocks)
    {
        // Every register must have been freed by a final read.
        for (uint32_t b = 0; b < cfg.banks; ++b)
            dpu_assert(valid[b].none(), "register file leak");

        prog.cfg = cfg;
        prog.inputLocation = ir.inputLocation;
        for (const auto &o : ir.outputs)
            prog.outputs.push_back({o.node, o.row, o.col});
        prog.stats.bankConflicts = ir.copyResolvedConflicts;
        prog.stats.blocks = numBlocks;

        // Spill rows were allocated relative; rebase them just past
        // the now-final input/output region.
        const uint32_t spillBase = ir.inputRows + ir.outputRows;
        for (size_t idx : spillStoreFixups)
            std::get<Store4Instr>(prog.instructions[idx]).memRow +=
                spillBase;
        for (size_t idx : reloadFixups)
            std::get<LoadInstr>(prog.instructions[idx]).memRow +=
                spillBase;
        prog.numRows = spillBase + relSpillRows;

        for (const Instruction &in : prog.instructions)
            ++prog.stats.kindCount[static_cast<size_t>(kindOf(in))];
        prog.stats.instructions = prog.instructions.size();
        prog.stats.cycles =
            prog.instructions.size() + cfg.pipelineStages();
        prog.stats.nops =
            prog.stats.kindCount[static_cast<size_t>(InstrKind::Nop)];
        return std::move(prog);
    }

  private:
    uint64_t now() const { return prog.instructions.size(); }

    /** Resolve a read: reload if spilled, return (bank, addr). */
    std::pair<uint32_t, uint32_t>
    resolveRead(const IrRead &r)
    {
        InstState &st = state[r.inst];
        dpu_assert(st.addr != noAddr, "read of non-resident instance");
        dpu_assert(st.readableAt <= now(), "unresolved pipeline hazard");
        uint32_t bank = instances[r.inst].bank;
        uint32_t addr = st.addr;
        dpu_assert(st.nextUseIdx < st.uses.size() &&
                   st.uses[st.nextUseIdx] == irIndex,
                   "use-list cursor out of sync");
        ++st.nextUseIdx;
        if (r.lastRead) {
            valid[bank].clear(addr);
            occupant[bank][addr] = invalidInstance;
            st.addr = noAddr;
        }
        return {bank, addr};
    }

    /** IR index of an instance's next read (infinity if none known —
     *  a cross-chunk use not yet appended counts as furthest). */
    uint32_t
    nextUse(InstanceId id) const
    {
        const InstState &st = state[id];
        return st.nextUseIdx < st.uses.size()
            ? st.uses[st.nextUseIdx]
            : std::numeric_limits<uint32_t>::max();
    }

    /**
     * Make room in `bank`: spill the resident instance with the
     * furthest next use whose data has already landed and which the
     * current instruction is not itself reading.
     */
    void
    spillOne(uint32_t bank, const IrInstr &current)
    {
        InstanceId victim = invalidInstance;
        uint32_t victim_use = 0;
        for (uint32_t slot = 0; slot < cfg.regsPerBank; ++slot) {
            InstanceId c = occupant[bank][slot];
            if (c == invalidInstance)
                continue;
            if (state[c].readableAt > now())
                continue; // in flight, a store would read garbage
            bool in_current = false;
            for (const IrRead &r : current.reads)
                if (r.inst == c)
                    in_current = true;
            if (in_current)
                continue;
            uint32_t use = nextUse(c);
            // Never evict something needed within the reload-prefetch
            // horizon; it would bounce straight back.
            if (use <= irIndex + 2)
                continue;
            if (victim == invalidInstance || use > victim_use) {
                victim = c;
                victim_use = use;
            }
        }
        if (victim == invalidInstance)
            dpu_fatal("register file too small (R=" +
                      std::to_string(cfg.regsPerBank) +
                      "): no spillable victim in bank " +
                      std::to_string(bank));

        InstState &st = state[victim];
        uint32_t row = st.spillRow;
        if (row == noAddr) {
            // Spill slots are packed per column: bank b's k-th spill
            // goes to (spillBase + k, column b), so a row serves up
            // to B spilled values and memory stays dense. Rows are
            // relative here; finish() rebases them past the final
            // input/output region.
            row = spillCount[bank]++;
            st.spillRow = row;
            relSpillRows = std::max(relSpillRows, row + 1);
        }
        // The memory copy of an immutable value stays valid, so a
        // re-spill still emits the store (a read is the only way the
        // hardware can clear a valid bit) but reuses the row.
        Store4Instr s4;
        s4.memRow = row;
        s4.slots[0] = {true, static_cast<uint16_t>(bank),
                       static_cast<uint16_t>(st.addr)};
        valid[bank].clear(st.addr);
        occupant[bank][st.addr] = invalidInstance;
        st.addr = noAddr;
        prog.instructions.push_back(s4);
        spillStoreFixups.push_back(prog.instructions.size() - 1);
        ++prog.stats.spillStores;
    }

    /** Reserve a register for `id` in its bank (issue-time policy). */
    void
    place(InstanceId id, InstrKind producer, const IrInstr &current)
    {
        uint32_t bank = instances[id].bank;
        if (valid[bank].firstZero() == cfg.regsPerBank)
            spillOne(bank, current);
        size_t addr = valid[bank].firstZero();
        dpu_assert(addr < cfg.regsPerBank, "spill failed to free a slot");
        valid[bank].set(addr);
        occupant[bank][addr] = id;
        state[id].addr = static_cast<uint32_t>(addr);
        // Provisional; fixWriteTimes() patches the exact issue time of
        // the writing instruction (spills inserted between placements
        // of one instruction would otherwise skew it).
        state[id].readableAt = now() + writeLatency(producer, cfg);
    }

    /** Patch the write-latency clocks after the writer is pushed. */
    void
    fixWriteTimes(const IrInstr &in)
    {
        uint64_t pos = prog.instructions.size() - 1;
        for (const IrWrite &w : in.writes)
            state[w.inst].readableAt = pos + writeLatency(in.kind, cfg);
    }

    /** Emit a reload of a spilled instance (relative row; fixed up at
     *  finish). */
    void
    emitReload(InstanceId id)
    {
        LoadInstr ld;
        ld.memRow = state[id].spillRow;
        ld.enable.assign(cfg.banks, false);
        ld.enable[instances[id].bank] = true;
        prog.instructions.push_back(std::move(ld));
        reloadFixups.push_back(prog.instructions.size() - 1);
        ++prog.stats.reloads;
    }

    /**
     * Reload-prefetch: look 1-2 IR instructions ahead and bring their
     * spilled operands back now, so the 2-cycle load latency hides
     * behind the intervening instructions instead of costing a nop.
     * The look-ahead stops at the current chunk's end — the next
     * chunk may not have been merged yet.
     */
    void
    prefetchReloads()
    {
        for (uint32_t k = 1; k <= 2; ++k) {
            if (irIndex + k >= chunkEnd)
                break;
            const IrInstr &future = curIr->instrs[irIndex + k];
            for (const IrRead &r : future.reads) {
                InstState &st = state[r.inst];
                // Only instances that are currently swapped out: a
                // not-yet-written instance has no memory copy either.
                if (st.addr != noAddr || st.spillRow == noAddr)
                    continue;
                place(r.inst, InstrKind::Load, future);
                emitReload(r.inst);
                state[r.inst].readableAt =
                    prog.instructions.size() - 1 + 2;
            }
        }
    }

    /** Reload spilled operands of `in`, then one covering nop — the
     *  fallback for operands the prefetcher could not cover. */
    void
    reloadSpilledReads(const IrInstr &in)
    {
        bool any = false;
        for (const IrRead &r : in.reads) {
            InstState &st = state[r.inst];
            if (st.addr != noAddr)
                continue;
            dpu_assert(st.spillRow != noAddr,
                       "non-resident instance without a memory copy");
            place(r.inst, InstrKind::Load, in);
            emitReload(r.inst);
            any = true;
        }
        if (any) {
            // One nop gives the last reload its 2-cycle write latency
            // before the consumer issues.
            prog.instructions.push_back(NopInstr{});
        }
    }

    void
    emit(const IrInstr &in)
    {
        switch (in.kind) {
          case InstrKind::Nop:
            prog.instructions.push_back(NopInstr{});
            return;

          case InstrKind::Load: {
            LoadInstr ld;
            ld.memRow = in.memRow;
            ld.enable.assign(cfg.banks, false);
            for (const IrWrite &w : in.writes) {
                place(w.inst, InstrKind::Load, in);
                ld.enable[instances[w.inst].bank] = true;
            }
            prog.instructions.push_back(std::move(ld));
            fixWriteTimes(in);
            return;
          }

          case InstrKind::Copy4: {
            reloadSpilledReads(in);
            Copy4Instr cp;
            cp.validRst.assign(cfg.banks, false);
            dpu_assert(in.reads.size() == in.writes.size() &&
                       in.reads.size() <= 4, "malformed copy");
            for (size_t k = 0; k < in.reads.size(); ++k) {
                auto [src_bank, src_addr] = resolveRead(in.reads[k]);
                if (in.reads[k].lastRead)
                    cp.validRst[src_bank] = true;
                place(in.writes[k].inst, InstrKind::Copy4, in);
                cp.slots[k] = {true, static_cast<uint16_t>(src_bank),
                               static_cast<uint16_t>(src_addr),
                               static_cast<uint16_t>(
                                   instances[in.writes[k].inst].bank)};
            }
            prog.instructions.push_back(std::move(cp));
            fixWriteTimes(in);
            return;
          }

          case InstrKind::Exec: {
            reloadSpilledReads(in);
            const Block &blk = blockAt(in.blockId);
            ExecInstr ex;
            ex.peOp = blk.peOps;
            ex.inputSel.assign(in.inputSel.begin(), in.inputSel.end());
            ex.readAddr.assign(cfg.banks, 0);
            ex.validRst.assign(cfg.banks, false);
            ex.writeEnable.assign(cfg.banks, false);
            ex.outputSel.assign(cfg.banks, 0);
            for (const IrRead &r : in.reads) {
                auto [bank, addr] = resolveRead(r);
                ex.readAddr[bank] = static_cast<uint16_t>(addr);
                ex.validRst[bank] = r.lastRead;
            }
            for (const IrWrite &w : in.writes) {
                const RegInstance &inst = instances[w.inst];
                place(w.inst, InstrKind::Exec, in);
                ex.writeEnable[inst.bank] = true;
                ex.outputSel[inst.bank] = static_cast<uint16_t>(
                    outputSelectFor(writers[inst.bank], inst.writerPe));
            }
            for (PeOp op : ex.peOp)
                if (op == PeOp::Add || op == PeOp::Mul)
                    ++prog.stats.peOpsExecuted;
            prog.instructions.push_back(std::move(ex));
            fixWriteTimes(in);
            return;
          }

          case InstrKind::Store:
          case InstrKind::Store4: {
            reloadSpilledReads(in);
            if (in.kind == InstrKind::Store) {
                StoreInstr st;
                st.memRow = in.memRow;
                st.enable.assign(cfg.banks, false);
                st.readAddr.assign(cfg.banks, 0);
                for (const IrRead &r : in.reads) {
                    dpu_assert(r.lastRead, "store must free its source");
                    auto [bank, addr] = resolveRead(r);
                    st.enable[bank] = true;
                    st.readAddr[bank] = static_cast<uint16_t>(addr);
                }
                prog.instructions.push_back(std::move(st));
            } else {
                Store4Instr st;
                st.memRow = in.memRow;
                dpu_assert(in.reads.size() <= 4, "store_4 overflow");
                for (size_t k = 0; k < in.reads.size(); ++k) {
                    dpu_assert(in.reads[k].lastRead,
                               "store must free its source");
                    auto [bank, addr] = resolveRead(in.reads[k]);
                    st.slots[k] = {true, static_cast<uint16_t>(bank),
                                   static_cast<uint16_t>(addr)};
                }
                prog.instructions.push_back(std::move(st));
            }
            return;
          }
        }
        dpu_panic("unhandled IR instruction kind");
    }

    const ArchConfig &cfg;
    const WriterTable writers;
    ProgramFinalizer::BlockResolver blockAt;

    CompiledProgram prog;
    std::vector<RegInstance> instances;
    std::vector<InstState> state;
    std::vector<std::vector<InstanceId>> occupant;
    std::vector<BitVec> valid;
    uint32_t relSpillRows = 0;
    std::vector<uint32_t> spillCount;
    std::vector<size_t> spillStoreFixups;
    std::vector<size_t> reloadFixups;
    const IrProgram *curIr = nullptr;
    uint32_t chunkEnd = 0;
    uint32_t irIndex = 0;
};

} // namespace detail

ProgramFinalizer::ProgramFinalizer(const ArchConfig &cfg,
                                   BlockResolver blocks)
    : impl(std::make_unique<detail::FinalizerImpl>(cfg, std::move(blocks)))
{}

ProgramFinalizer::~ProgramFinalizer() = default;

void
ProgramFinalizer::appendChunk(const IrProgram &ir, size_t fromInstr,
                              size_t fromInstance)
{
    impl->appendChunk(ir, fromInstr, fromInstance);
}

CompiledProgram
ProgramFinalizer::finish(const IrProgram &ir, size_t numBlocks)
{
    return impl->finish(ir, numBlocks);
}

CompiledProgram
finalizeProgram(IrProgram &&ir, const ArchConfig &cfg,
                const BlockDecomposition &dec)
{
    IrProgram local = std::move(ir);
    ProgramFinalizer fin(cfg, [&dec](uint32_t id) -> const Block & {
        return dec.blocks[id];
    });
    fin.appendChunk(local, 0, 0);
    return fin.finish(local, dec.blocks.size());
}

} // namespace dpu
