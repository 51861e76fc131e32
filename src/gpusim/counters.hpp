// Hardware-event counters collected by the SIMT timing simulator.
#pragma once

#include <cstdint>

namespace ssam::sim {

/// Aggregated per-warp/per-block/per-kernel event counts. All counts are in
/// warp-level units unless stated otherwise (one warp instruction = 32 lanes).
struct Counters {
  // Instruction classes (warp instructions issued).
  std::uint64_t fp_ops = 0;        ///< floating point add/mul/mad warp ops
  std::uint64_t fp64_ops = 0;      ///< subset of fp_ops executed in double precision
  std::uint64_t alu_ops = 0;       ///< integer/address/select warp ops
  std::uint64_t shfl_ops = 0;      ///< warp shuffle instructions

  // Shared memory.
  std::uint64_t smem_loads = 0;        ///< LDS warp instructions
  std::uint64_t smem_stores = 0;       ///< STS warp instructions
  std::uint64_t smem_broadcasts = 0;   ///< LDS where all active lanes hit one address
  std::uint64_t smem_conflict_extra = 0;  ///< extra serialized passes due to bank conflicts

  // Global memory (transaction granularity: 32B sectors; lines are 128B).
  std::uint64_t gmem_load_insts = 0;
  std::uint64_t gmem_store_insts = 0;
  std::uint64_t gmem_load_sectors = 0;
  std::uint64_t gmem_store_sectors = 0;
  std::uint64_t l1_hit_lines = 0;
  std::uint64_t l2_hit_sectors = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;

  std::uint64_t barriers = 0;  ///< __syncthreads executed (per block)

  Counters& operator+=(const Counters& o) {
    fp_ops += o.fp_ops;
    fp64_ops += o.fp64_ops;
    alu_ops += o.alu_ops;
    shfl_ops += o.shfl_ops;
    smem_loads += o.smem_loads;
    smem_stores += o.smem_stores;
    smem_broadcasts += o.smem_broadcasts;
    smem_conflict_extra += o.smem_conflict_extra;
    gmem_load_insts += o.gmem_load_insts;
    gmem_store_insts += o.gmem_store_insts;
    gmem_load_sectors += o.gmem_load_sectors;
    gmem_store_sectors += o.gmem_store_sectors;
    l1_hit_lines += o.l1_hit_lines;
    l2_hit_sectors += o.l2_hit_sectors;
    dram_read_bytes += o.dram_read_bytes;
    dram_write_bytes += o.dram_write_bytes;
    barriers += o.barriers;
    return *this;
  }

  /// Total warp instructions issued (used by the SM throughput model).
  [[nodiscard]] std::uint64_t issued_instructions() const {
    return fp_ops + alu_ops + shfl_ops + smem_loads + smem_stores + gmem_load_insts +
           gmem_store_insts;
  }

  [[nodiscard]] std::uint64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
};

}  // namespace ssam::sim
