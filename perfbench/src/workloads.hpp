// The benchmark's four workloads (see perfbench/README.md for why each was
// chosen). A workload owns its seeded inputs and the sequential oracle's
// answer; the runtime only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blas/kernels.hpp"
#include "runtime/config.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

/// A timed region recorded by the traced run around a call into the
/// runtime or an app entry point. `iter` groups the spans of one iteration.
struct Span {
  const char* name;
  std::uint64_t iter;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Span sink of one iteration; records nothing when `out` is null.
struct SpanSink {
  std::vector<Span>* out = nullptr;
  std::uint64_t iter = 0;
  void add(const char* name, std::uint64_t t0, std::uint64_t t1) const {
    if (out != nullptr) out->push_back(Span{name, iter, t0, t1});
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The run's Config, every field set here (never from the environment).
  virtual smpss::Config config(unsigned threads) const = 0;

  /// Register the workload's task types in a fresh Runtime.
  virtual void register_types(smpss::Runtime& rt) = 0;

  /// Restore the inputs an iteration overwrites. Untimed.
  virtual void reset() = 0;

  /// One whole task graph, from the first spawn to the return of
  /// barrier(). Returns the app's status (0 = success).
  virtual int run(smpss::Runtime& rt, const smpss::blas::Kernels& k,
                  const SpanSink& spans) = 0;

  /// The last iteration's output against the sequential oracle. Untimed.
  virtual bool check(int rc) const = 0;

  /// Damage the last iteration's output so that check() must fail (the
  /// benchmark's self-test).
  virtual void corrupt() = 0;

  /// Milliseconds of one single-threaded sequential run of the problem.
  virtual double seq_ms() = 0;

  /// The paper's flop count of one iteration; 0 when it has none.
  virtual double flops() const { return 0.0; }

  /// One line: problem size and oracle tolerance.
  virtual std::string describe() const = 0;
};

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Build the named workload's inputs and oracle answer from `seed`; null
/// for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
