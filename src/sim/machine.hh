/**
 * @file
 * Cycle-accurate DPU-v2 simulator (substitute for the paper's RTL +
 * Synopsys VCS flow; see DESIGN.md).
 *
 * Models, per cycle: instruction issue (one per cycle — the dense
 * packing + aligning shifter of fig. 7 makes fetch stall-free), bank
 * reads with independent addresses, the input crossbar, the PE trees
 * with their D+1-stage pipeline, the restricted output interconnect,
 * automatic write-address generation via per-register valid bits
 * (fig. 5(d)), and the vector load/store path to data memory.
 *
 * The simulator *checks* rather than tolerates hazards: reading a
 * register whose data is still in flight, reading an invalid
 * register, or writing a full bank is a panic — the compiler is
 * required to produce hazard-free code, and the simulator is the
 * instrument that proves it.
 *
 * Decode once, run many times. The Machine constructor decodes the
 * program into an immutable, compact form (see DESIGN.md): per exec,
 * the leaf reads (port, bank, address) and active-PE steps in tree
 * order, the valid_rst frees, and the writes with the output-mux
 * writer PE already resolved; per load/store/copy, its lane lists.
 * run() then only moves values and register state. The checks split
 * by what they depend on:
 *
 *  - at decode (Machine construction; the instruction alone decides):
 *    field widths, load/store/store_4 row range, register index
 *    range, copy_4 destination bank, PE opcode, crossbar select
 *    range, active PE fed by an idle child, valid_rst on a bank the
 *    exec did not read, output-mux select range, store-back from an
 *    idle PE, input/output locations inside data memory;
 *  - at run (the register state decides): read of an invalid
 *    register, pipeline hazard (data still in flight), write to a
 *    full bank, valid_rst of an empty register, and the register
 *    leak check at the end.
 *
 * Every failed check throws PanicError.
 */

#ifndef DPU_SIM_MACHINE_HH
#define DPU_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "arch/isa.hh"
#include "arch/topology.hh"
#include "compiler/program.hh"

namespace dpu {

/** Bytes one run moves across the host↔rank boundary: the input
 *  vector down plus the output vector back, 8 bytes per value. */
inline uint64_t
hostTransferBytes(const CompiledProgram &prog)
{
    return 8ull *
           ((uint64_t)prog.inputLocation.size() + prog.outputs.size());
}

/** Event counts accumulated during simulation (feed the energy model). */
struct SimStats
{
    uint64_t cycles = 0;
    std::array<uint64_t, 6> kindCount{}; ///< Issued, by InstrKind.

    uint64_t bankReads = 0;      ///< Register-bank read accesses.
    uint64_t bankWrites = 0;     ///< Register-bank write accesses.
    uint64_t peOperations = 0;   ///< Add/Mul ops executed (incl. replicas).
    uint64_t pePassThroughs = 0; ///< Pass ops executed.
    uint64_t crossbarTransfers = 0; ///< Words moved through the input net.
    uint64_t memReads = 0;       ///< Data-memory row reads.
    uint64_t memWrites = 0;      ///< Data-memory row writes.
    uint64_t instrBitsFetched = 0; ///< Instruction-memory traffic.

    /** Peak over cycles of total live registers. */
    uint64_t peakLiveRegisters = 0;

    /** Per-bank occupancy trace, sampled every `traceStride` cycles
     *  when tracing is enabled (fig. 10(c,d)); bounded by
     *  SimOptions::maxTraceSamples via stride-doubling decimation. */
    std::vector<std::vector<uint32_t>> occupancyTrace;

    /** Effective sampling stride of occupancyTrace, in cycles:
     *  starts at SimOptions::traceInterval and doubles on every
     *  decimation. 0 when tracing was off. Sample i was taken at
     *  cycle i * traceStride. */
    uint64_t traceStride = 0;

    /** Modeled host↔rank transfer cycles (SimOptions::transfer),
     *  accounted separately from the compute `cycles` above. 0 under
     *  the default free transfer model. */
    uint64_t transferCycles = 0;
};

/** Simulation options. */
struct SimOptions
{
    bool traceOccupancy = false;
    uint32_t traceInterval = 16;

    /** Upper bound on occupancyTrace rows. When the trace fills up,
     *  every other row is dropped and the sampling stride doubles,
     *  so arbitrarily long runs keep a whole-run trace in bounded
     *  memory. 0 = unbounded (the historical behavior). */
    uint32_t maxTraceSamples = 4096;

    /** Host↔rank transfer cost charged per run (one dispatch moving
     *  one input/output vector pair). The default model is free, so
     *  stats stay byte-identical to the pre-fleet simulator. */
    HostTransferModel transfer{};
};

/** Result of a run: per-node output values, in program.outputs order. */
struct SimResult
{
    std::vector<double> outputs;
    SimStats stats;
};

/**
 * An explicit subset of the modeled machine's cores, identified by
 * core id. BatchMachine historically took only a core *count*; the
 * serving side partitions the modeled cores between resident programs
 * (per-program reservations), so a batch must be able to run on, say,
 * cores {2, 5} while another occupies {0, 1, 3, 4}. Core identity
 * never reaches the per-input simulation — a Machine models one core
 * regardless of its id — so it affects only the lockstep wall-clock
 * accounting and the occupancy attribution.
 */
struct CoreSet
{
    /** Member core ids; must be unique. Order is the round-robin
     *  slicing order. */
    std::vector<uint32_t> ids;

    /** The conventional contiguous set {0, 1, ..., n-1}. */
    static CoreSet firstN(uint32_t n);

    size_t count() const { return ids.size(); }
    bool empty() const { return ids.empty(); }

    /** Panic on duplicate ids (a double-booked model core). */
    void validate() const;
};

/**
 * A dispatch target in a fleet: a rank plus a set of that rank's
 * cores. Generalizes CoreSet — a RankSet on rank 0 with the same
 * cores behaves exactly like the bare CoreSet. Rank identity, like
 * core identity, never reaches the per-input simulation; it selects
 * which host link the transfer model charges and labels the
 * accounting.
 */
struct RankSet
{
    uint32_t rank = 0; ///< owning rank id
    CoreSet cores;     ///< cores of that rank

    /** The conventional single-rank set: rank 0, cores 0..n-1. */
    static RankSet
    firstN(uint32_t n)
    {
        return RankSet{0, CoreSet::firstN(n)};
    }

    size_t count() const { return cores.count(); }
    bool empty() const { return cores.empty(); }

    /** Panic on duplicate core ids within the rank. */
    void validate() const { cores.validate(); }
};

/** A program decoded for the simulator (defined in machine.cc). */
struct DecodedProgram;

/**
 * The machine: one program, decoded once, run over any number of
 * inputs. Copies share the decoded form, so a copy is cheap, and the
 * Machine does not refer back to the CompiledProgram it was built
 * from.
 */
class Machine
{
  public:
    /** Decode `program`; panics on any instruction-level fault (see
     *  the file header). */
    explicit Machine(const CompiledProgram &program,
                     SimOptions options = {});

    /**
     * Execute the program on one input vector (one value per DAG
     * input, in input-id order — same convention as dpu::evaluate).
     * Thread-safe: all per-run state is private to the call.
     */
    SimResult run(const std::vector<double> &input_values) const;

    /** hostTransferBytes() of the decoded program. */
    uint64_t transferBytes() const;

  private:
    std::shared_ptr<const DecodedProgram> code;
    SimOptions opts;
};

/**
 * Convenience: simulate and compare against the golden evaluator.
 * Panics (with a diagnostic) on any mismatch beyond tolerance.
 * @return the simulation result.
 */
class Dag;
SimResult runAndCheck(const CompiledProgram &program, const Dag &dag,
                      const std::vector<double> &input_values,
                      SimOptions options = {});

} // namespace dpu

#endif // DPU_SIM_MACHINE_HH
