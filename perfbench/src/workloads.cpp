#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "apps/cholesky.hpp"
#include "apps/multisort.hpp"
#include "apps/strassen.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "hyper/flat_matrix.hpp"
#include "hyper/hyper_matrix.hpp"
#include "patterns/driver.hpp"
#include "patterns/oracle.hpp"

namespace perfbench {
namespace {

using smpss::now_ns;

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

/// Every Config field, spelled out so that an exported SMPSS_* variable or
/// a changed library default cannot change what is measured. The values
/// are the paper-faithful defaults of runtime/config.hpp.
smpss::Config explicit_config(unsigned threads, bool nested) {
  smpss::Config c;
  c.num_threads = threads;
  c.task_window = 8192;
  c.task_window_low = 0;
  c.rename_memory_limit = std::size_t(512) << 20;
  c.renaming = true;
  c.nested_tasks = nested;
  c.dep_shards = 0;
  c.dep_lockfree = true;
  c.chain_depth = 16;
  c.pool_cache = 64;
  c.scheduler_mode = smpss::SchedulerMode::Distributed;
  c.steal_order = smpss::StealOrder::CreationOrder;
  c.sched_policy = smpss::SchedPolicyKind::Paper;
  c.aware_crit_ppm = 1500000;
  c.aware_locality_ppm = 500000;
  c.aware_cost_ns = 1000;
  c.record_graph = false;
  c.tracing = false;
  c.pin_threads = false;
  c.spin_acquires = 128;
  c.max_streams = 64;
  c.stats_period_ms = 0;
  c.stats_path.clear();
  c.procs = 1;
  return c;
}

// --- stencil_fine ---------------------------------------------------------------

/// task-bench stencil_1d with empty bodies: the runtime's per-task cost is
/// all there is to measure.
class StencilFine final : public Workload {
 public:
  explicit StencilFine(std::uint64_t seed) {
    spec_.kind = smpss::patterns::PatternKind::Stencil1D;
    spec_.width = 256;
    spec_.steps = 256;
    spec_.seed = seed;
    spec_.kernel.kind = smpss::patterns::KernelKind::Empty;
    spec_.validate();
    initial_ = smpss::patterns::make_initial_image(spec_, kFields);
    const std::uint64_t t0 = now_ns();
    oracle_ = smpss::patterns::run_oracle(spec_, kFields);
    seq_ms_ = ms_since(t0);
    oracle_sum_ = smpss::patterns::image_checksum(oracle_);
  }

  smpss::Config config(unsigned threads) const override {
    return explicit_config(threads, /*nested=*/false);
  }
  void register_types(smpss::Runtime&) override {}
  void reset() override { img_ = initial_; }

  int run(smpss::Runtime& rt, const smpss::blas::Kernels&,
          const SpanSink& spans) override {
    const std::uint64_t t0 = now_ns();
    smpss::patterns::submit_pattern(rt, spec_, img_,
                                    smpss::patterns::LowerMode::Address,
                                    smpss::patterns::SubmitShape::Flat);
    const std::uint64_t t1 = now_ns();
    rt.barrier();
    const std::uint64_t t2 = now_ns();
    spans.add("submit_pattern", t0, t1);
    spans.add("barrier", t1, t2);
    return 0;
  }

  bool check(int rc) const override {
    return rc == 0 && smpss::patterns::image_checksum(img_) == oracle_sum_ &&
           img_ == oracle_;
  }
  void corrupt() override { img_.cells[0] ^= 1; }
  double seq_ms() override { return seq_ms_; }

  std::string describe() const override {
    return spec_.describe() + " fields=2 lowering=address shape=flat" +
           " oracle=run_oracle (exact image and checksum)";
  }

 private:
  static constexpr int kFields = 2;
  smpss::patterns::PatternSpec spec_;
  smpss::patterns::PatternImage initial_, oracle_, img_;
  std::uint64_t oracle_sum_ = 0;
  double seq_ms_ = 0.0;
};

// --- cholesky -------------------------------------------------------------------

/// Fig. 9/10 flat Cholesky: tile kernels do nearly all the work.
class Cholesky final : public Workload {
 public:
  /// Blocked (parallel) and unblocked (oracle) factorizations round
  /// differently; the inputs are diagonally dominant with entries below 2.1,
  /// so a correct factor agrees with the oracle far inside this bound and a
  /// missed dependency does not.
  static constexpr float kTolerance = 1e-4f;

  explicit Cholesky(std::uint64_t seed) : a0_(kN), oracle_(kN), work_(kN) {
    smpss::fill_spd(a0_, seed);
    std::memcpy(oracle_.data(), a0_.data(), a0_.bytes());
    const std::uint64_t t0 = now_ns();
    const int rc = smpss::apps::cholesky_seq_flat(kN, oracle_.data(),
                                                  smpss::blas::tuned_kernels());
    seq_ms_ = ms_since(t0);
    SMPSS_CHECK(rc == 0, "cholesky oracle failed on a generated SPD input");
  }

  smpss::Config config(unsigned threads) const override {
    return explicit_config(threads, /*nested=*/false);
  }
  void register_types(smpss::Runtime& rt) override {
    tt_ = smpss::apps::CholeskyTasks::register_in(rt);
  }
  void reset() override {
    std::memcpy(work_.data(), a0_.data(), a0_.bytes());
  }

  int run(smpss::Runtime& rt, const smpss::blas::Kernels& k,
          const SpanSink& spans) override {
    const std::uint64_t t0 = now_ns();
    const int rc =
        smpss::apps::cholesky_smpss_flat(rt, tt_, kN, work_.data(), kBs, k);
    spans.add("cholesky_smpss_flat", t0, now_ns());
    return rc;
  }

  bool check(int rc) const override {
    return rc == 0 && smpss::max_abs_diff_lower(work_, oracle_) <= kTolerance;
  }
  void corrupt() override { work_.at(kN - 1, 0) += 1.0f; }
  double seq_ms() override { return seq_ms_; }
  double flops() const override { return smpss::apps::cholesky_flops(kN); }

  std::string describe() const override {
    std::ostringstream os;
    os << "n=" << kN << " bs=" << kBs << " kernels=tuned"
       << " oracle=cholesky_seq_flat max_abs_diff_lower<=" << kTolerance;
    return os.str();
  }

 private:
  static constexpr int kN = 2048;
  static constexpr int kBs = 128;
  smpss::FlatMatrix a0_, oracle_, work_;
  smpss::apps::CholeskyTasks tt_{};
  double seq_ms_ = 0.0;
};

// --- strassen -------------------------------------------------------------------

/// Sec. VI.C Strassen: temporaries reused across the seven products, so
/// renaming does real work.
class Strassen final : public Workload {
 public:
  /// Relative to the largest |C| entry. The parallel build performs the
  /// oracle's arithmetic in the same order per element, so the difference
  /// is expected to be zero; the bound only forgives reassociation.
  static constexpr float kRelTolerance = 1e-5f;

  explicit Strassen(std::uint64_t seed)
      : a_(kNb, kM), b_(kNb, kM), c_(kNb, kM), oracle_(kNb, kM) {
    smpss::FlatMatrix fa(kNb * kM), fb(kNb * kM);
    smpss::fill_random(fa, seed);
    smpss::fill_random(fb, smpss::patterns::mix64(seed, 0x5B));
    smpss::blocked_from_flat(a_, fa.data());
    smpss::blocked_from_flat(b_, fb.data());
    const std::uint64_t t0 = now_ns();
    smpss::apps::strassen_seq(a_, b_, oracle_, smpss::blas::tuned_kernels());
    seq_ms_ = ms_since(t0);
    for_each_elem(oracle_, [&](float v) {
      max_ref_ = std::max(max_ref_, std::fabs(v));
    });
  }

  smpss::Config config(unsigned threads) const override {
    return explicit_config(threads, /*nested=*/false);
  }
  void register_types(smpss::Runtime& rt) override {
    tt_ = smpss::apps::StrassenTasks::register_in(rt);
  }
  void reset() override { c_.fill_zero(); }

  int run(smpss::Runtime& rt, const smpss::blas::Kernels& k,
          const SpanSink& spans) override {
    const std::uint64_t t0 = now_ns();
    smpss::apps::strassen_smpss(rt, tt_, a_, b_, c_, k);
    spans.add("strassen_smpss", t0, now_ns());
    return 0;
  }

  bool check(int rc) const override {
    if (rc != 0) return false;
    float diff = 0.0f;
    for (int i = 0; i < kNb; ++i)
      for (int j = 0; j < kNb; ++j) {
        const float* x = c_.block(i, j);
        const float* y = oracle_.block(i, j);
        for (std::size_t e = 0; e < c_.block_elems(); ++e)
          diff = std::max(diff, std::fabs(x[e] - y[e]));
      }
    return diff <= kRelTolerance * max_ref_;
  }
  void corrupt() override { c_.block(kNb - 1, 0)[0] += 1.0f + max_ref_; }
  double seq_ms() override { return seq_ms_; }
  double flops() const override {
    return smpss::apps::strassen_flops(kNb, kM);
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "hyper=" << kNb << "x" << kNb << " block=" << kM << "x" << kM
       << " kernels=tuned oracle=strassen_seq max_abs_diff<=" << kRelTolerance
       << "*max|C|";
    return os.str();
  }

 private:
  template <typename F>
  static void for_each_elem(const smpss::HyperMatrix& h, F&& f) {
    for (int i = 0; i < h.nblocks(); ++i)
      for (int j = 0; j < h.nblocks(); ++j)
        for (std::size_t e = 0; e < h.block_elems(); ++e) f(h.block(i, j)[e]);
  }

  static constexpr int kNb = 16;
  static constexpr int kM = 64;
  smpss::HyperMatrix a_, b_, c_, oracle_;
  smpss::apps::StrassenTasks tt_{};
  float max_ref_ = 0.0f;
  double seq_ms_ = 0.0;
};

// --- multisort_nested -----------------------------------------------------------

/// Sec. V.A multisort over array regions, with the recursion expanded by
/// nested generator tasks that taskwait() their quarters.
class MultisortNested final : public Workload {
 public:
  explicit MultisortNested(std::uint64_t seed)
      : input_(kN), sorted_(kN), data_(kN), tmp_(kN) {
    smpss::Xoshiro256 rng(seed);
    for (auto& v : input_) v = static_cast<smpss::apps::ELM>(rng.next() >> 1);
    sorted_ = input_;
    std::sort(sorted_.begin(), sorted_.end());
  }

  smpss::Config config(unsigned threads) const override {
    return explicit_config(threads, /*nested=*/true);
  }
  void register_types(smpss::Runtime& rt) override {
    tt_ = smpss::apps::MultisortTasks::register_in(rt);
  }
  void reset() override { data_ = input_; }

  int run(smpss::Runtime& rt, const smpss::blas::Kernels&,
          const SpanSink& spans) override {
    const std::uint64_t t0 = now_ns();
    smpss::apps::multisort_smpss_regions(rt, tt_, data_.data(), tmp_.data(),
                                         kN, kQuick, kMerge);
    spans.add("multisort_smpss_regions", t0, now_ns());
    return 0;
  }

  bool check(int rc) const override { return rc == 0 && data_ == sorted_; }
  void corrupt() override { std::swap(data_[0], data_[kN - 1]); }

  double seq_ms() override {
    std::vector<smpss::apps::ELM> d = input_, t(kN);
    const std::uint64_t t0 = now_ns();
    smpss::apps::multisort_seq(d.data(), t.data(), kN, kQuick);
    const double ms = ms_since(t0);
    SMPSS_CHECK(d == sorted_, "multisort_seq disagrees with std::sort");
    return ms;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "n=" << kN << " quick=" << kQuick << " merge=" << kMerge
       << " regions nested_tasks=1 oracle=std::sort (exact)";
    return os.str();
  }

 private:
  static constexpr long kN = 1L << 22;
  static constexpr long kQuick = 1L << 14;
  static constexpr long kMerge = 1L << 14;
  std::vector<smpss::apps::ELM> input_, sorted_, data_, tmp_;
  smpss::apps::MultisortTasks tt_{};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"stencil_fine", "cholesky",
                                              "strassen", "multisort_nested"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "stencil_fine") return std::make_unique<StencilFine>(seed);
  if (name == "cholesky") return std::make_unique<Cholesky>(seed);
  if (name == "strassen") return std::make_unique<Strassen>(seed);
  if (name == "multisort_nested")
    return std::make_unique<MultisortNested>(seed);
  return nullptr;
}

}  // namespace perfbench
