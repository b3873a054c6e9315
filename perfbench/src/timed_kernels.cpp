#include "timed_kernels.hpp"

#include <memory>
#include <mutex>
#include <type_traits>

#include "common/check.hpp"
#include "common/timing.hpp"

namespace perfbench {
namespace {

using smpss::blas::Kernels;

/// One thread's totals. Only its owner writes it; take_kernel_totals() reads
/// it after the runtime's barrier has ordered those writes.
struct Slot {
  std::uint64_t ns = 0;
  double flops = 0.0;
  std::vector<std::uint32_t> gemm_ns;
};

std::mutex g_slots_mu;
std::vector<std::unique_ptr<Slot>> g_slots;  // guarded by g_slots_mu
const Kernels* g_inner = nullptr;

Slot& my_slot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lk(g_slots_mu);
    g_slots.push_back(std::make_unique<Slot>());
    slot = g_slots.back().get();
  }
  return *slot;
}

/// Run `call`, charging its duration and `flops` to this thread.
template <typename F>
auto timed(double flops, bool gemm, F&& call) {
  Slot& s = my_slot();
  const std::uint64_t t0 = smpss::now_ns();
  auto finish = [&] {
    const std::uint64_t d = smpss::now_ns() - t0;
    s.ns += d;
    s.flops += flops;
    if (gemm) s.gemm_ns.push_back(static_cast<std::uint32_t>(d));
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    finish();
  } else {
    auto rc = call();
    finish();
    return rc;
  }
}

double cube(int m) { return static_cast<double>(m) * m * m; }
double square(int m) { return static_cast<double>(m) * m; }

void gemm_nt_minus(int m, const float* a, const float* b, float* c) {
  timed(2 * cube(m), true, [&] { g_inner->gemm_nt_minus(m, a, b, c); });
}
void gemm_nn_acc(int m, const float* a, const float* b, float* c) {
  timed(2 * cube(m), true, [&] { g_inner->gemm_nn_acc(m, a, b, c); });
}
void syrk_ln_minus(int m, const float* a, float* c) {
  timed(cube(m), false, [&] { g_inner->syrk_ln_minus(m, a, c); });
}
void trsm_rltn(int m, const float* l, float* x) {
  timed(cube(m), false, [&] { g_inner->trsm_rltn(m, l, x); });
}
int potrf_ln(int m, float* a) {
  return timed(cube(m) / 3, false, [&] { return g_inner->potrf_ln(m, a); });
}
void add(int m, const float* a, const float* b, float* c) {
  timed(square(m), false, [&] { g_inner->add(m, a, b, c); });
}
void sub(int m, const float* a, const float* b, float* c) {
  timed(square(m), false, [&] { g_inner->sub(m, a, b, c); });
}

const Kernels kTimed{"timed", gemm_nt_minus, gemm_nn_acc, syrk_ln_minus,
                     trsm_rltn, potrf_ln,   add,         sub};

}  // namespace

const Kernels& timed_kernels(const Kernels& inner) {
  SMPSS_CHECK(g_inner == nullptr || g_inner == &inner,
              "timed_kernels wraps one bundle per process");
  g_inner = &inner;
  return kTimed;
}

KernelTotals take_kernel_totals() {
  KernelTotals t;
  std::lock_guard<std::mutex> lk(g_slots_mu);
  for (const auto& s : g_slots) {
    t.ns += s->ns;
    t.flops += s->flops;
    t.gemm_ns.insert(t.gemm_ns.end(), s->gemm_ns.begin(), s->gemm_ns.end());
    *s = Slot{};
  }
  return t;
}

}  // namespace perfbench
