// perfbench — the repository benchmark's measuring binary. perfbench/run.py
// builds it and runs one workload per process:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--corrupt-every K]
//
// --trace 0 measures the end-to-end metrics with tracing off, over five
// segments, each on a freshly set-up Runtime. --trace 1 alternates untraced
// reference segments with traced ones (Tracer on, timing kernel bundle,
// spans around the calls into the runtime and the apps) and reports the
// per-layer metrics. Every iteration is checked against the workload's
// sequential oracle. --corrupt-every K damages every K-th timed output
// before the check (the self-test).
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics; the lines before it give the effective Config and every
// metric by name with its unit.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/affinity.hpp"
#include "common/timing.hpp"
#include "runtime/runtime.hpp"
#include "timed_kernels.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using smpss::now_ns;

/// Threads per workload, main thread included (never more than nproc).
constexpr unsigned kThreads = 4;
/// An end-to-end run is split into this many segments, each on a freshly
/// set-up Runtime: setup_s is their median, and the iterations of all of
/// them are pooled, so a slow phase of the host or one Runtime's state
/// weighs on a fifth of the samples rather than on the whole run.
constexpr int kSegments = 5;
/// Untimed iterations that warm caches, pools and rename buffers.
constexpr int kWarmups = 2;
/// Timed iterations an end-to-end run needs so that at least ten lie
/// beyond iter_ms_p90.
constexpr std::size_t kMinIters = 100;

/// Layer-sum tolerance, as a share of threads x wall: how far the
/// independently measured body and idle time may exceed the thread time
/// they must fit in. Idle is counted in sleeps of at most 0.5 ms, so an
/// iteration boundary can misplace up to (threads - 1) x 0.5 ms of it.
double layer_tolerance(const std::string& workload) {
  if (workload == "stencil_fine") return 0.02;
  if (workload == "cholesky") return 0.02;
  return 0.03;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  unsigned corrupt_every = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--spans-out") a.spans_out = v;
      else if (k == "--corrupt-every") a.corrupt_every = std::stoul(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

// --- runtime counters -----------------------------------------------------------

enum Counter {
  kExecuted,
  kWindowBlocks,
  kPoolSlabs,
  kTaskwaits,
  kEdges,
  kRenames,
  kRenameBytes,
  kRegionAccesses,
  kIdleNs,
  kSteals,
  kStealAttempts,
  kChained,
  kLocalityHits,
  kLocalityMisses,
  kCounterCount
};
using Counters = std::array<std::uint64_t, kCounterCount>;

Counters counters_of(const smpss::StatsSnapshot& s) {
  Counters c{};
  c[kExecuted] = s.tasks_executed;
  c[kWindowBlocks] = s.main_blocked_on_window;
  c[kPoolSlabs] = s.pool_slabs;
  c[kTaskwaits] = s.taskwaits;
  c[kEdges] = s.raw_edges + s.war_edges + s.waw_edges;
  c[kRenames] = s.renames;
  c[kRenameBytes] = s.rename_bytes_total;
  c[kRegionAccesses] = s.region_accesses;
  c[kIdleNs] = s.idle_ns;
  c[kSteals] = s.steals;
  c[kStealAttempts] = s.steal_attempts;
  c[kChained] = s.chained_executions;
  c[kLocalityHits] = s.locality_hits;
  c[kLocalityMisses] = s.locality_misses;
  return c;
}

// --- the closed loop ------------------------------------------------------------

/// What a run's segments measured, pooled over its Runtimes.
struct Loop {
  smpss::Config config;           ///< effective Config (after normalize)
  std::vector<double> setup_s;    ///< one per Runtime set up
  std::vector<double> iter_ms;    ///< timed iterations
  std::uint64_t attempted = 0;    ///< warm-up and timed iterations
  std::uint64_t failed = 0;
  std::uint64_t corrupted = 0;
  Counters delta{};  ///< summed over the timed iterations only
  std::uint64_t rename_peak_bytes = 0;
  // traced loop only
  std::uint64_t body_ns = 0;  ///< per-worker union of task-body intervals
  std::uint64_t copy_ns = 0;  ///< get_block / put_block bodies
  std::uint64_t events = 0;
  KernelTotals kernels;
};

/// Fold one iteration's Tracer events into `r` and empty the tracer. A
/// body that taskwait()s runs other bodies nested inside its own interval
/// on the same worker, so a worker's body time is the union of its
/// intervals, not their sum.
void fold_trace(smpss::Runtime& rt, Loop& r) {
  const std::vector<smpss::TraceEvent> ev = rt.tracer().collect();
  rt.tracer().clear();
  r.events += ev.size();
  const auto& types = rt.task_types();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open(rt.num_threads());
  for (const smpss::TraceEvent& e : ev) {  // sorted by start time
    auto& [s, end] = open.at(e.worker);
    if (e.start_ns >= end) {
      r.body_ns += end - s;
      s = e.start_ns;
      end = e.end_ns;
    } else {
      end = std::max(end, e.end_ns);
    }
    const std::string& type = types.at(e.type_id).name;
    if (type == "get_block" || type == "put_block")
      r.copy_ns += e.end_ns - e.start_ns;
  }
  for (const auto& [s, end] : open) r.body_ns += end - s;
}

/// Set up a fresh Runtime — construct it, register the task types, run
/// kWarmups untimed iterations; the time that takes goes to `r.setup_s` —
/// then run iterations on it back to back until `seconds` have passed and
/// `r` holds at least `min_iters` timed iterations (or twice `seconds`
/// passed). An iteration is: reset (untimed), one whole task graph (timed),
/// oracle check (untimed). A traced segment (`spans` set) also records spans
/// and folds the Tracer events and kernel totals after every iteration.
void run_segment(const smpss::Config& cfg, Workload& w,
                 const smpss::blas::Kernels& k, double seconds,
                 std::size_t min_iters, std::vector<Span>* spans,
                 unsigned corrupt_every, Loop& r) {
  std::uint64_t setup_ns = 0;
  std::uint64_t t0 = now_ns();
  smpss::Runtime rt(cfg);
  w.register_types(rt);
  setup_ns += now_ns() - t0;
  for (int i = 0; i < kWarmups; ++i) {
    w.reset();
    t0 = now_ns();
    const int rc = w.run(rt, k, SpanSink{});
    setup_ns += now_ns() - t0;
    ++r.attempted;
    if (!w.check(rc)) ++r.failed;
  }
  r.setup_s.push_back(static_cast<double>(setup_ns) * 1e-9);
  r.config = rt.config();
  const bool traced = spans != nullptr;
  if (traced) {
    rt.tracer().clear();
    take_kernel_totals();
  }

  const std::uint64_t t_start = now_ns();
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  for (;;) {
    const std::uint64_t elapsed = now_ns() - t_start;
    if (elapsed >= ns && (r.iter_ms.size() >= min_iters || elapsed >= 2 * ns))
      break;
    w.reset();
    const Counters before = counters_of(rt.stats());
    t0 = now_ns();
    const int rc = w.run(rt, k, SpanSink{spans, r.iter_ms.size()});
    const std::uint64_t t1 = now_ns();
    const smpss::StatsSnapshot after = rt.stats();
    const Counters ca = counters_of(after);
    for (int i = 0; i < kCounterCount; ++i) r.delta[i] += ca[i] - before[i];
    r.rename_peak_bytes = std::max<std::uint64_t>(r.rename_peak_bytes,
                                                  after.rename_bytes_peak);
    r.iter_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    ++r.attempted;
    if (corrupt_every != 0 && r.iter_ms.size() % corrupt_every == 0) {
      w.corrupt();
      ++r.corrupted;
    }
    if (!w.check(rc)) ++r.failed;
    if (traced) {
      fold_trace(rt, r);
      KernelTotals kt = take_kernel_totals();
      r.kernels.ns += kt.ns;
      r.kernels.flops += kt.flops;
      r.kernels.gemm_ns.insert(r.kernels.gemm_ns.end(), kt.gemm_ns.begin(),
                               kt.gemm_ns.end());
    }
  }
}

// --- statistics and output ------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident set of this process (one workload per process), in MiB.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_config(const smpss::Config& c) {
  std::cout << "config num_threads=" << c.num_threads
            << " task_window=" << c.task_window
            << " task_window_low=" << c.task_window_low
            << " rename_memory_limit=" << c.rename_memory_limit
            << " renaming=" << c.renaming << " nested_tasks=" << c.nested_tasks
            << " dep_shards=" << c.dep_shards
            << " dep_lockfree=" << c.dep_lockfree
            << " chain_depth=" << c.chain_depth
            << " pool_cache=" << c.pool_cache
            << " scheduler=" << smpss::to_string(c.scheduler_mode)
            << " steal_order=" << smpss::to_string(c.steal_order)
            << " sched_policy=" << smpss::to_string(c.sched_policy)
            << " spin_acquires=" << c.spin_acquires
            << " pin_threads=" << c.pin_threads << " tracing=" << c.tracing
            << " record_graph=" << c.record_graph << " procs=" << c.procs
            << "\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& json) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < json.size(); ++i)
    os << (i ? ", " : "") << "\"" << json[i].name << "\": {\"value\": "
       << fmt(json[i].value) << ", \"unit\": \"" << json[i].unit << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_loop(const char* label, const Loop& r) {
  const double p90 = quantile(r.iter_ms, 0.9);
  const auto beyond = std::count_if(r.iter_ms.begin(), r.iter_ms.end(),
                                    [&](double x) { return x > p90; });
  std::cout << "loop " << label << " iterations=" << r.iter_ms.size()
            << " beyond_p90=" << beyond << " failed=" << r.failed
            << " corrupted=" << r.corrupted
            << " tasks_per_iter=" << ratio(r.delta[kExecuted], r.iter_ms.size())
            << "\n";
}

// --- the two run modes ----------------------------------------------------------

int run_end_to_end(const Args& a, Workload& w, const smpss::Config& cfg) {
  const smpss::blas::Kernels& k = smpss::blas::tuned_kernels();
  Loop r;
  for (int i = 0; i < kSegments; ++i)
    run_segment(cfg, w, k, a.seconds / kSegments,
                i + 1 == kSegments ? kMinIters : 0, nullptr, a.corrupt_every,
                r);
  print_config(r.config);
  print_loop("untraced", r);

  const double p50 = quantile(r.iter_ms, 0.5);
  // The JSON result carries the metrics BENCHMARK.json bounds; the other
  // two are printed only (see perfbench/README.md for why).
  const std::vector<Metric> json{
      {"tasks_per_s", ratio(r.delta[kExecuted], sum(r.iter_ms) * 1e-3), "1/s"},
      {"iter_ms_p50", p50, "ms"},
      {"iter_ms_p90", quantile(r.iter_ms, 0.9), "ms"},
      {"setup_s", quantile(r.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  std::vector<Metric> shown = json;
  if (w.flops() > 0.0)
    shown.push_back({"gflops", ratio(w.flops(), p50 * 1e6), "Gflop/s"});
  shown.push_back({"fail_ratio", ratio(r.failed, r.attempted), "ratio"});
  for (const Metric& m : shown)
    std::cout << "metric " << m.name << " " << fmt(m.value) << " " << m.unit
              << "\n";
  print_result(r.failed == 0, r.attempted, r.failed, json);
  return 0;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "iter,name,start_ns,end_ns\n";
  for (const Span& s : spans)
    out << s.iter << "," << s.name << "," << s.start_ns - origin << ","
        << s.end_ns - origin << "\n";
}

int run_traced(const Args& a, Workload& w, const smpss::Config& cfg) {
  const smpss::blas::Kernels& tuned = smpss::blas::tuned_kernels();
  smpss::Config traced_cfg = cfg;
  traced_cfg.tracing = true;
  const smpss::blas::Kernels& timed = timed_kernels(tuned);

  // Untraced segments (the base of trace.overhead_ratio and ref.speedup)
  // alternate with traced ones (Tracer on, timing kernels, spans), so both
  // sample the same phases of the host.
  Loop u, t;
  std::vector<Span> spans;
  for (int i = 0; i < 2; ++i) {
    run_segment(cfg, w, tuned, a.seconds / 4, 0, nullptr, a.corrupt_every, u);
    run_segment(traced_cfg, w, timed, a.seconds / 4, 0, &spans,
                a.corrupt_every, t);
  }
  print_config(t.config);
  print_loop("untraced", u);
  print_loop("traced", t);
  const std::uint64_t attempted = u.attempted + t.attempted;
  const std::uint64_t failed = u.failed + t.failed;
  const unsigned threads = t.config.num_threads;

  const double seq_ms = w.seq_ms();
  const double iters = static_cast<double>(t.iter_ms.size());
  const double tasks = static_cast<double>(t.delta[kExecuted]);
  const double wall_ns = sum(t.iter_ms) * 1e6;
  const double thread_ns = threads * wall_ns;
  const double body = static_cast<double>(t.body_ns);
  const double idle = static_cast<double>(t.delta[kIdleNs]);
  const double overhead = thread_ns - body - idle;
  const double busy_ratio = ratio(body, thread_ns);
  const double overhead_per_task = ratio(overhead, tasks);
  const double idle_ms = ratio(idle * 1e-6, iters);
  double submit_ns = 0.0, barrier_ns = 0.0;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (std::strcmp(s.name, "submit_pattern") == 0) submit_ns += d;
    if (std::strcmp(s.name, "barrier") == 0) barrier_ns += d;
  }
  std::vector<double> gemm_ns(t.kernels.gemm_ns.begin(),
                              t.kernels.gemm_ns.end());
  const double u_p50 = quantile(u.iter_ms, 0.5);
  constexpr double kMiB = 1024.0 * 1024.0;

  const std::vector<Metric> json{
      {"runtime.submit_ns_per_task", ratio(submit_ns, tasks), "ns"},
      {"runtime.barrier_ms", ratio(barrier_ns * 1e-6, iters), "ms"},
      {"runtime.window_blocks", ratio(t.delta[kWindowBlocks], iters), "count"},
      {"runtime.pool_slabs", static_cast<double>(t.delta[kPoolSlabs]),
       "count"},
      {"runtime.taskwaits", ratio(t.delta[kTaskwaits], iters), "count"},
      {"dep.edges_per_task", ratio(t.delta[kEdges], tasks), "count"},
      {"dep.renames_per_task", ratio(t.delta[kRenames], tasks), "count"},
      {"dep.rename_mib", ratio(t.delta[kRenameBytes] / kMiB, iters), "MiB"},
      {"dep.rename_peak_mib", t.rename_peak_bytes / kMiB, "MiB"},
      {"dep.region_accesses_per_task", ratio(t.delta[kRegionAccesses], tasks),
       "count"},
      {"sched.busy_ratio", busy_ratio, "ratio"},
      {"sched.overhead_ns_per_task", overhead_per_task, "ns"},
      {"sched.idle_ms", idle_ms, "ms"},
      {"sched.steal_success", ratio(t.delta[kSteals], t.delta[kStealAttempts]),
       "ratio"},
      {"sched.chained_ratio", ratio(t.delta[kChained], tasks), "ratio"},
      {"sched.locality_hit_ratio",
       ratio(t.delta[kLocalityHits],
             t.delta[kLocalityHits] + t.delta[kLocalityMisses]),
       "ratio"},
      {"blas.kernel_ms", ratio(t.kernels.ns * 1e-6, iters), "ms"},
      {"blas.kernel_gflops", ratio(t.kernels.flops, t.kernels.ns), "Gflop/s"},
      {"blas.gemm_us_p50", quantile(gemm_ns, 0.5) * 1e-3, "us"},
      {"hyper.copy_ms", ratio(t.copy_ns * 1e-6, iters), "ms"},
      {"trace.overhead_ratio", ratio(quantile(t.iter_ms, 0.5), u_p50),
       "ratio"},
      {"ref.seq_ms", seq_ms, "ms"},
      {"ref.speedup", ratio(seq_ms, u_p50), "ratio"},
  };
  for (const Metric& m : json)
    std::cout << "layer " << m.name << " " << fmt(m.value) << " " << m.unit
              << "\n";

  // Layer-sum check. Body (Tracer) and idle (idle-gate sleeps) are measured
  // independently; the scheduler overhead is what remains of threads x wall.
  // The split accounts for the whole wall time only if the measured parts
  // fit inside it, every task's body was seen, and the reported per-layer
  // values add back up to threads x wall.
  const double tol = layer_tolerance(a.workload);
  const double resum = busy_ratio * thread_ns + overhead_per_task * tasks +
                       idle_ms * 1e6 * iters;
  const double sum_err = ratio(std::fabs(resum - thread_ns), thread_ns);
  const double fit = ratio(overhead, thread_ns);
  const bool layer_ok = t.events == t.delta[kExecuted] && fit >= -tol &&
                        sum_err <= tol && !t.iter_ms.empty();
  std::cout << "check layer_sum " << (layer_ok ? "ok" : "FAILED")
            << " threads_x_wall_ms=" << fmt(thread_ns * 1e-6)
            << " body_ms=" << fmt(body * 1e-6)
            << " idle_ms=" << fmt(idle * 1e-6)
            << " overhead_ms=" << fmt(overhead * 1e-6)
            << " overhead_share=" << fmt(fit) << " resum_err=" << fmt(sum_err)
            << " events=" << t.events << " tasks=" << t.delta[kExecuted]
            << " tolerance=" << tol << "\n";

  if (!a.spans_out.empty()) write_spans(a.spans_out, spans);
  print_result(failed == 0 && layer_ok, attempted, failed, json);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--corrupt-every K]\n";
    return 2;
  }
  const unsigned nproc = smpss::hardware_concurrency();
  const unsigned threads = std::min(kThreads, std::max(1u, nproc));
  const std::uint64_t g0 = now_ns();
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  std::cout << "workload " << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace
            << " nproc=" << nproc << " threads=" << threads << "\n"
            << "problem " << w->describe() << " generate_ms="
            << fmt(static_cast<double>(now_ns() - g0) * 1e-6) << "\n";
  const smpss::Config cfg = w->config(threads);
  return a.trace ? run_traced(a, *w, cfg) : run_end_to_end(a, *w, cfg);
}
