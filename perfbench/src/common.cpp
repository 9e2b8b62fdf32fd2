#include "common.h"

#include <omp.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", message.c_str());
  std::exit(1);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Mixture::Mixture(int dim_, int clusters, Rng& rng) : dim(dim_) {
  centers.resize(static_cast<std::size_t>(clusters) * dim);
  sigmas.resize(static_cast<std::size_t>(clusters));
  for (double& c : centers) c = 10.0 * rng.uniform();
  for (double& s : sigmas) s = 0.3 + 0.7 * rng.uniform();
}

void Mixture::sample(Rng& rng, double* out) const {
  const std::size_t c = rng.below(sigmas.size());
  for (int d = 0; d < dim; ++d)
    out[d] = centers[c * dim + d] + sigmas[c] * rng.normal();
}

std::vector<double> Mixture::rows(std::int64_t n, Rng& rng) const {
  std::vector<double> out(static_cast<std::size_t>(n) * dim);
  for (std::int64_t i = 0; i < n; ++i) sample(rng, out.data() + i * dim);
  return out;
}

double sq_dist(const double* a, const double* b, int dim) {
  double s = 0;
  for (int d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

std::vector<Neighbor> knn_reference(const std::vector<double>& rows, int dim,
                                    const double* q, int k) {
  const std::int64_t n = static_cast<std::int64_t>(rows.size()) / dim;
  std::vector<Neighbor> all(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    all[static_cast<std::size_t>(i)] = {sq_dist(q, rows.data() + i * dim, dim), i};
  const std::size_t kk = std::min<std::size_t>(static_cast<std::size_t>(k), all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(kk), all.end());
  all.resize(kk);
  return all;
}

bool distances_match(const std::vector<double>& got,
                     const std::vector<double>& want, double rel_tol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::abs(got[i] - want[i]) <= rel_tol * std::max(1.0, std::abs(want[i]))))
      return false;
  return true;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value, const std::string& unit) {
  infos_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Entry& e : metrics_)
    std::printf("  %-34s %18.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  for (const Entry& e : infos_)
    std::printf("  %-34s %18.6f %s (not gated)\n", e.name.c_str(), e.value, e.unit.c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                e.name.c_str(), v, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

namespace {
constexpr std::int64_t kReferencePoints = 24000;
constexpr int kReferenceQueries = 1500;
constexpr int kReferenceLeaf = 16;
constexpr int kReferenceK = 10;
}  // namespace

Yardstick::Yardstick() {
  Rng shape(0x79617264ULL);
  const Mixture mixture(dim_, 12, shape);
  Rng rng(0x7374696bULL);
  const std::vector<double> rows = mixture.rows(kReferencePoints, rng);
  std::vector<int> order(static_cast<std::size_t>(kReferencePoints));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  // Median splits on dimensions in turn; leaves hold kReferenceLeaf points.
  const auto build = [&](auto&& self, int a, int b, int depth) -> int {
    const int id = static_cast<int>(lo_.size());
    lo_.push_back(a);
    hi_.push_back(b);
    left_.push_back(-1);
    right_.push_back(-1);
    axis_.push_back(depth % dim_);
    split_.push_back(0);
    if (b - a <= kReferenceLeaf) return id;
    const int ax = depth % dim_, m = (a + b) / 2;
    std::nth_element(order.begin() + a, order.begin() + m, order.begin() + b,
                     [&](int x, int y) { return rows[x * dim_ + ax] < rows[y * dim_ + ax]; });
    split_[id] = rows[order[m] * dim_ + ax];
    const int l = self(self, a, m, depth + 1);
    const int r = self(self, m, b, depth + 1);
    left_[id] = l;
    right_[id] = r;
    return id;
  };
  build(build, 0, static_cast<int>(kReferencePoints), 0);
  points_.resize(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    std::copy_n(rows.data() + order[i] * dim_, dim_, points_.data() + i * dim_);

  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

double Yardstick::run_reference() {
  std::vector<double> heap;  // max-heap of the k best squared distances
  const auto search = [&](auto&& self, int node, const double* q) -> void {
    if (left_[node] < 0) {
      for (int i = lo_[node]; i < hi_[node]; ++i) {
        const double d = sq_dist(q, points_.data() + i * dim_, dim_);
        if (heap.size() < static_cast<std::size_t>(kReferenceK)) {
          heap.push_back(d);
          std::push_heap(heap.begin(), heap.end());
        } else if (d < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = d;
          std::push_heap(heap.begin(), heap.end());
        }
      }
      return;
    }
    const double diff = q[axis_[node]] - split_[node];
    self(self, diff < 0 ? left_[node] : right_[node], q);
    if (heap.size() < static_cast<std::size_t>(kReferenceK) || diff * diff < heap.front())
      self(self, diff < 0 ? right_[node] : left_[node], q);
  };
  const double t0 = now_s();
  for (int i = 0; i < kReferenceQueries; ++i) {
    heap.clear();
    search(search, 0, points_.data() + (i * 7919LL % kReferencePoints) * dim_);
    sink_ += heap.front();
  }
  return now_s() - t0;
}

void Yardstick::pin_next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void Yardstick::unpin() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string machine_record(const Args& args, int parallel_threads,
                           int thread_budget) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "machine: {\"nproc\": %d, \"compiler\": \"%s\", "
                "\"omp_max_threads\": %d, \"parallel_threads\": %d, "
                "\"thread_budget\": %d, \"l2_bytes\": %ld, \"l3_bytes\": %ld, "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d}",
                available_cpus(), kCompiler, omp_get_max_threads(),
                parallel_threads, thread_budget, sysconf(_SC_LEVEL2_CACHE_SIZE),
                sysconf(_SC_LEVEL3_CACHE_SIZE), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
  return buf;
}

}  // namespace perfbench
