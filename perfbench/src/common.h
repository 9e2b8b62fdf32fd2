// perfbench -- shared harness pieces: arguments, clocks, order statistics,
// seeded inputs, brute-force references, the machine record and the result
// report. Nothing here calls into Portal except Dataset construction; the
// references are computed from the benchmark's own row-major copy of the
// inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();

double median(std::vector<double> values);

/// Linear-interpolated quantile, q in [0, 1]; 0 on an empty sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Fail the run: message on stderr, exit code 1, no result line.
[[noreturn]] void fail(const std::string& message);

/// splitmix64: the benchmark's own seeded generator (inputs never come from
/// the library's generators, so a change there cannot change the inputs).
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  double normal();   // standard normal (Box-Muller)
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Mixture of `clusters` isotropic Gaussians with centers uniform in
/// [0, 10]^dim and per-cluster stddev uniform in [0.3, 1.0].
struct Mixture {
  int dim = 0;
  std::vector<double> centers;  // clusters x dim
  std::vector<double> sigmas;   // clusters
  Mixture(int dim, int clusters, Rng& rng);
  void sample(Rng& rng, double* out) const;
  /// `n` points, row-major (point-contiguous).
  std::vector<double> rows(std::int64_t n, Rng& rng) const;
};

/// One brute-force neighbor: squared distance and row index.
using Neighbor = std::pair<double, std::int64_t>;

/// The k nearest rows of `rows` (n x dim, row-major) to `q`, ascending by
/// (squared distance, index).
std::vector<Neighbor> knn_reference(const std::vector<double>& rows, int dim,
                                    const double* q, int k);
double sq_dist(const double* a, const double* b, int dim);

/// Do two ascending k-NN distance lists agree (relative tolerance on each
/// distance)? Ids are compared by the callers, modulo ties.
bool distances_match(const std::vector<double>& got,
                     const std::vector<double>& want, double rel_tol);

/// The result of one run. Metrics print as a human table and then as the
/// final JSON line {"correct", "attempted", "failed", "metrics"}. Figures
/// added with info() print in the table only: they are measured every run
/// but too host-dependent to gate on (perfbench/README.md).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);  // printed above the JSON line
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Prints `correct` as true: a failed check ends the run before this.
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_, infos_;
  std::vector<std::string> notes_;
};

/// nproc, compiler, OpenMP thread count, cache sizes, workload and seed, as
/// one "machine: {...}" line.
std::string machine_record(const Args& args, int parallel_threads,
                           int thread_budget);

/// Threads this process may run at once (CPU affinity, else hardware).
int available_cpus();

/// The benchmark's own reference work: 1,500 kNN queries (k = 10) on a
/// kd-tree over 24,000 fixed points at d = 8, implemented in common.cpp, so
/// no change to Portal changes it. The gated 1-thread timings are measured
/// beside it: on a shared host the speed of a CPU drifts by 20-30% from one
/// run to the next, and the ratio of Portal's time to the reference time,
/// taken on the same CPU moments apart, cancels most of that drift.
class Yardstick {
 public:
  /// One timing: the work's seconds and the mean of the two reference runs
  /// around it.
  struct Timing {
    double work_s;
    double reference_s;
    double ratio() const { return work_s / reference_s; }
  };

  Yardstick();
  /// Runs the reference, `work`, and the reference again. With `pin`, the
  /// calling thread runs all three on the next CPU it may use (in turn) and
  /// is unpinned after; work that starts threads must not pin, because a
  /// new thread inherits the pin.
  template <class Work>
  Timing time(Work&& work, bool pin = true) {
    if (pin) pin_next();
    const double r0 = run_reference();
    const double t0 = now_s();
    work();
    const double work_s = now_s() - t0;
    const double r1 = run_reference();
    if (pin) unpin();
    return {work_s, 0.5 * (r0 + r1)};
  }

 private:
  double run_reference();  // seconds
  void pin_next();
  void unpin();

  int dim_ = 8;
  std::vector<double> points_;  // kd order, row-major
  std::vector<int> lo_, hi_, left_, right_, axis_;
  std::vector<double> split_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  double sink_ = 0;
};

}  // namespace perfbench
