/**
 * @file
 * Datapath <-> register-bank interconnects (paper §III-C, fig. 6).
 *
 * The input side is always a full B x B crossbar (every tree input
 * port can read any bank) — the paper shows at least one crossbar is
 * needed to decouple PE mapping from bank mapping, and picks the input
 * side. The output side is restricted; this module answers "which
 * banks can PE p write?" and its inverse for each fig. 6 topology.
 */

#ifndef DPU_ARCH_INTERCONNECT_HH
#define DPU_ARCH_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"

namespace dpu {

/**
 * Banks writable by PE `pe` under the configured output interconnect.
 *
 * - Crossbar: every bank.
 * - PerLayerSubtree (fig. 6(b)): a PE covers the leaf ports of its
 *   subtree; it can write exactly the banks feeding those ports, so a
 *   layer-l PE reaches 2^l banks and each bank sees one PE per layer
 *   (the D:1 output mux of fig. 5(a)).
 * - OnePerPe (fig. 6(c)): PE (layer l, index j) writes the single bank
 *   at local offset j*2^l + 2^(l-1); the root PE additionally writes
 *   local bank 0 (the "two in the case of the top PE" of the paper).
 */
std::vector<uint32_t> writableBanks(const ArchConfig &cfg, uint32_t pe);

/** PEs that can write bank `bank` (inverse of writableBanks). */
std::vector<uint32_t> writingPes(const ArchConfig &cfg, uint32_t bank);

/** writingPes(cfg, b) for every bank b, indexed by bank. Entry k of a
 *  bank's list is the PE its output-mux select value k picks. */
using WriterTable = std::vector<std::vector<uint32_t>>;

/** Build the writer table once per configuration, so that per-write
 *  lookups (simulator decode, verifier, finalizer, disassembler) do
 *  not recompute writingPes. */
WriterTable writerTable(const ArchConfig &cfg);

/**
 * Mux-select value identifying `pe` among a bank's `writers`, i.e.
 * what the exec instruction's per-bank output-select field stores.
 * Panics if the PE cannot write the bank.
 */
uint32_t outputSelectFor(const std::vector<uint32_t> &writers, uint32_t pe);

/** Widest per-bank writer set, determines the output-select width. */
uint32_t maxWritersPerBank(const ArchConfig &cfg);

} // namespace dpu

#endif // DPU_ARCH_INTERCONNECT_HH
