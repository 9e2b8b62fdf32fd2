// Golden regression wall: the six Table-IV problems (k-NN, KDE, range
// search, EMST, two-point, Hausdorff) computed on pinned-seed datasets with
// serial options must reproduce the CSVs committed under tests/golden/.
//
// Index columns compare exactly; real-valued columns compare within a tight
// relative tolerance (the CSVs are written %.17g, so the slack only absorbs
// libm differences across platforms/compilers, not algorithm drift). A
// legitimate behavior change regenerates the files in the same commit:
//
//   portal_cli --dump-golden=tests/golden
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/codegen/jit.h"
#include "core/portal.h"
#include "data/generators.h"
#include "kernels/gaussian.h"
#include "problems/golden.h"
#include "problems/kde.h"
#include "util/csv.h"

#ifndef PORTAL_GOLDEN_DIR
#error "PORTAL_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace portal {
namespace {

constexpr real_t kRelTolerance = 1e-9;

TEST(Golden, TablesMatchCommittedCsvs) {
  const std::vector<GoldenTable> tables = compute_golden_tables();
  ASSERT_EQ(tables.size(), 6u);

  for (const GoldenTable& table : tables) {
    SCOPED_TRACE("table " + table.name);
    const std::string path =
        std::string(PORTAL_GOLDEN_DIR) + "/" + table.name + ".csv";
    CsvTable committed;
    ASSERT_NO_THROW(committed = read_csv(path))
        << "missing golden file " << path
        << " -- regenerate with portal_cli --dump-golden=tests/golden";

    ASSERT_EQ(committed.rows, table.rows);
    ASSERT_EQ(committed.cols, table.cols);
    for (index_t i = 0; i < table.rows; ++i)
      for (index_t j = 0; j < table.cols; ++j) {
        const real_t want = committed.values[i * table.cols + j];
        const real_t got = table.values[i * table.cols + j];
        const bool exact =
            std::find(table.integer_cols.begin(), table.integer_cols.end(),
                      j) != table.integer_cols.end();
        if (exact) {
          EXPECT_EQ(want, got) << "row " << i << " col " << j;
        } else {
          EXPECT_NEAR(want, got,
                      kRelTolerance * std::max(std::abs(want), real_t(1)))
              << "row " << i << " col " << j;
        }
      }
  }
}

// The committed KDE table against an independent oracle: exact brute force,
// normalized, within the approximation contract tau * |R| per query (every
// approximated pair, by the node rule or the row rule, errs by at most tau)
// at the table's tau = 1e-4, scaled by the normalization.
TEST(Golden, KdeTableWithinTauOfBruteForce) {
  const Dataset query = make_gaussian_mixture(123, 3, 3, kGoldenSeed);
  const Dataset reference = make_gaussian_mixture(157, 3, 3, kGoldenSeed + 1);
  const CsvTable committed = read_csv(std::string(PORTAL_GOLDEN_DIR) + "/kde.csv");
  ASSERT_EQ(committed.rows, query.size());
  ASSERT_EQ(committed.cols, 1);

  const real_t sigma = 0.7;
  const KdeResult brute = kde_bruteforce(query, reference, sigma, true);
  const real_t norm = GaussianKernel(sigma).normalization(query.dim(), reference.size());
  const real_t slack = real_t(1e-4) * static_cast<real_t>(reference.size()) * norm;
  for (index_t i = 0; i < committed.rows; ++i)
    EXPECT_NEAR(committed.values[i], brute.densities[i],
                slack + kRelTolerance * std::abs(brute.densities[i]))
        << "row " << i;
}

// The tables themselves must be non-degenerate -- a golden file of zeros
// would happily "match" a broken regeneration.
TEST(Golden, TablesAreNonDegenerate) {
  for (const GoldenTable& table : compute_golden_tables()) {
    SCOPED_TRACE("table " + table.name);
    EXPECT_GT(table.rows, 0);
    EXPECT_GT(table.cols, 0);
    real_t sum_abs = 0;
    for (real_t v : table.values) sum_abs += std::abs(v);
    EXPECT_GT(sum_abs, 0) << "all-zero golden table";
  }
}

// The same pinned problems through the JIT engine (fused leaf loops, the
// full compiler pipeline) against the committed CSVs. The committed k-NN
// numbers are exact, so index columns must match exactly and distances to
// the standard relative tolerance; the committed KDE table was computed at
// tau = 1e-4, so the exact (tau = 0) JIT run must land within the documented
// per-query approximation bound, tau * |R|, scaled by the normalization the
// expert applied.
TEST(Golden, JitEngineMatchesCommittedTables) {
  if (!jit_available()) GTEST_SKIP() << "no system compiler";
  const Dataset query = make_gaussian_mixture(123, 3, 3, kGoldenSeed);
  const Dataset reference = make_gaussian_mixture(157, 3, 3, kGoldenSeed + 1);

  PortalConfig config;
  config.engine = Engine::JIT;
  config.parallel = false;
  config.leaf_size = 16;
  config.tau = 0;

  { // knn.csv: [idx_0..idx_3, dist_0..dist_3] per query row.
    const CsvTable committed =
        read_csv(std::string(PORTAL_GOLDEN_DIR) + "/knn.csv");
    ASSERT_EQ(committed.rows, query.size());
    ASSERT_EQ(committed.cols, 8);

    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, Storage(query));
    expr.addLayer({PortalOp::KARGMIN, 4}, Storage(reference),
                  PortalFunc::EUCLIDEAN);
    expr.execute(config);
    EXPECT_EQ(expr.artifacts().chosen_engine, "jit");
    const Storage out = expr.getOutput();
    ASSERT_TRUE(out.has_indices());

    for (index_t i = 0; i < committed.rows; ++i)
      for (index_t j = 0; j < 4; ++j) {
        EXPECT_EQ(committed.values[i * 8 + j],
                  static_cast<real_t>(out.index_at(i, j)))
            << "row " << i << " idx " << j;
        EXPECT_NEAR(committed.values[i * 8 + 4 + j], out.value(i, j),
                    kRelTolerance *
                        std::max(std::abs(committed.values[i * 8 + 4 + j]),
                                 real_t(1)))
            << "row " << i << " dist " << j;
      }
  }

  { // kde.csv: one normalized density per query row.
    const CsvTable committed =
        read_csv(std::string(PORTAL_GOLDEN_DIR) + "/kde.csv");
    ASSERT_EQ(committed.rows, query.size());
    ASSERT_EQ(committed.cols, 1);

    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, Storage(query));
    expr.addLayer(PortalOp::SUM, Storage(reference), PortalFunc::gaussian(0.7));
    expr.execute(config);
    EXPECT_EQ(expr.artifacts().chosen_engine, "jit");
    const Storage out = expr.getOutput();

    const GaussianKernel kernel(real_t(0.7));
    const real_t norm = kernel.normalization(query.dim(), reference.size());
    const real_t slack =
        real_t(1e-4) * static_cast<real_t>(reference.size()) * norm;
    for (index_t i = 0; i < committed.rows; ++i)
      EXPECT_NEAR(committed.values[i], out.value(i) * norm,
                  slack + kRelTolerance * std::abs(committed.values[i]))
          << "row " << i;
  }
}

} // namespace
} // namespace portal
