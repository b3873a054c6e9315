// A blas::Kernels bundle that forwards every call to another bundle and
// times it. The traced run passes it to the linear-algebra apps in place of
// the tuned kernels, which gives the `blas.*` per-layer metrics without a
// probe inside the runtime library.
#pragma once

#include <cstdint>
#include <vector>

#include "blas/kernels.hpp"

namespace perfbench {

/// Kernel time and work summed over every thread since the last take.
struct KernelTotals {
  std::uint64_t ns = 0;
  double flops = 0.0;
  /// Duration of each gemm_nt_minus / gemm_nn_acc call.
  std::vector<std::uint32_t> gemm_ns;
};

/// The timing bundle over `inner`. One inner bundle per process: a second
/// call with a different bundle is a program error.
const smpss::blas::Kernels& timed_kernels(const smpss::blas::Kernels& inner);

/// Sum and reset every thread's totals. Call only while no kernel runs
/// (after barrier() returned), which orders the workers' writes before it.
KernelTotals take_kernel_totals();

}  // namespace perfbench
