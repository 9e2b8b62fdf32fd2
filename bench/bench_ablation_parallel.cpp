// Ablation: the OpenMP task-parallel traversal (paper Sec. IV-F). Sweeps the
// thread count and the task-spawn depth on k-NN and KDE workloads.
//
// NOTE: on a container exposing a single core this emits flat curves -- the
// harness exists so the sweep is one rebuild away on a real multicore box
// (the paper's machine had 128 cores). Correctness under threads is covered
// by the *.ParallelMatchesSerial tests regardless.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "data/generators.h"
#include "problems/kde.h"
#include "problems/knn.h"
#include "tree/kdtree.h"
#include "util/threading.h"

using namespace portal;
using namespace portal::bench;

int main(int argc, char** argv) {
  const std::string json_path = JsonReport::extract_json_path(&argc, argv);
  JsonReport report;

  print_header("Parallel scaling -- threads x task-spawn depth");
  const Dataset data = make_gaussian_mixture(
      static_cast<index_t>(20000 * bench_scale_from_env()), 3, 5, 71);

  const int hw_threads = num_threads();
  std::printf("hardware threads visible: %d\n\n", hw_threads);

  print_row({"Problem", "threads", "task depth", "time(s)"});
  for (int threads : {1, 2, 4, 8}) {
    if (threads > 2 * hw_threads && threads > 8) break;
    set_num_threads(threads);
    for (int depth : {0, 4, 8}) {
      KnnOptions knn;
      knn.k = 5;
      knn.parallel = threads > 1;
      knn.task_depth = depth;
      const double knn_s =
          time_best("bench/knn_expert", [&] { knn_expert(data, data, knn); }, 2);
      print_row({"k-NN", std::to_string(threads), std::to_string(depth),
                 fmt(knn_s)});
      report.add("ablation_parallel/knn_t" + std::to_string(threads),
                 "depth_" + std::to_string(depth), knn_s);
    }
    KdeOptions kde;
    kde.sigma = 1.0;
    kde.tau = 1e-3;
    kde.parallel = threads > 1;
    const double kde_s =
        time_best("bench/kde_expert", [&] { kde_expert(data, data, kde); }, 2);
    print_row({"KDE", std::to_string(threads), "auto", fmt(kde_s)});
    report.add("ablation_parallel/kde_t" + std::to_string(threads), "auto",
               kde_s);
  }
  set_num_threads(hw_threads);

  // The task-parallel upper tree composes with the SIMD tiles in the leaves
  // (paper Sec. IV-F: tasks above, data parallelism below) -- toggle the
  // tiles at full thread count to isolate their share.
  print_header("Batched vs scalar base cases (expert kernels, all threads)");
  print_row({"Problem", "mode", "time(s)"});
  for (const bool batch : {false, true}) {
    const char* mode = batch ? "batched" : "scalar";
    KnnOptions knn;
    knn.k = 5;
    knn.parallel = hw_threads > 1;
    knn.batch = batch;
    const double knn_s =
        time_best("bench/knn_expert", [&] { knn_expert(data, data, knn); }, 2);
    print_row({"k-NN", mode, fmt(knn_s)});
    report.add("ablation_parallel/knn_expert", mode, knn_s);

    KdeOptions kde;
    kde.sigma = 1.0;
    kde.tau = 1e-3;
    kde.parallel = hw_threads > 1;
    kde.batch = batch;
    const double kde_s =
        time_best("bench/kde_expert", [&] { kde_expert(data, data, kde); }, 2);
    print_row({"KDE", mode, fmt(kde_s)});
    report.add("ablation_parallel/kde_expert", mode, kde_s);
  }

  print_header("Tree construction -- serial vs task-parallel build");
  print_row({"Tree", "n", "threads", "build(s)"});
  for (index_t n : {index_t(100000), index_t(1000000)}) {
    const index_t scaled =
        std::max<index_t>(1000, static_cast<index_t>(n * bench_scale_from_env()));
    const Dataset pts = make_uniform(scaled, 3, 91);
    for (int threads : {1, 2, 4}) {
      if (threads > 2 * hw_threads && threads > 4) break;
      set_num_threads(threads);
      const bool parallel = threads > 1;
      const double kd_s = time_best(
          "bench/kd_build", [&] { KdTree t(pts, kDefaultLeafSize, parallel); }, 3);
      print_row({"kd", std::to_string(scaled), std::to_string(threads),
                 fmt(kd_s)});
    }
  }
  set_num_threads(hw_threads);

  print_header("Build vs traverse split (k-NN, dual kd-tree)");
  {
    const Dataset pts = make_uniform(
        static_cast<index_t>(100000 * bench_scale_from_env()), 3, 92);
    const KdTree qtree(pts, kDefaultLeafSize);
    const KdTree rtree(pts, kDefaultLeafSize);
    KnnOptions knn;
    knn.k = 5;
    knn.parallel = hw_threads > 1;
    const KnnResult result = knn_dualtree_permuted(qtree, rtree, knn);
    print_row({"phase", "time(s)", "", ""});
    print_row({"tree build (q+r)",
               fmt(qtree.stats().build_seconds + rtree.stats().build_seconds),
               "", ""});
    print_row({"traversal", fmt(result.stats.elapsed_seconds), "", ""});
  }

  std::printf("\nOn one visible core the rows coincide; on a multicore\n"
              "machine k-NN and KDE scale with threads until the task depth\n"
              "saturates them (the paper's Sec. IV-F scheme), and the tree\n"
              "builds scale via the divide-and-conquer task recursion.\n");

  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}
