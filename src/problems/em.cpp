#include "problems/em.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include <omp.h>

#include "kernels/gaussian.h"
#include "kernels/linalg.h"
#include "kernels/metrics.h"
#include "util/rng.h"

namespace portal {
namespace {

/// Per-component frozen parameters for one E-step.
struct Component {
  std::vector<real_t> mean;
  MahalanobisContext ctx; // Cholesky of covariance + eig bounds
  real_t log_weight = 0;

  Component(std::vector<real_t> mu, std::vector<real_t> cov, index_t dim,
            real_t weight)
      : mean(std::move(mu)), ctx(std::move(cov), dim), log_weight(std::log(weight)) {}
};

/// log(pi_k N(x | mu_k, Sigma_k)) for every k, then normalized
/// responsibilities via log-sum-exp. Returns the point's log-likelihood.
real_t point_responsibilities(const real_t* x, const std::vector<Component>& comps,
                              real_t* scratch, real_t* log_terms, real_t* resp) {
  const index_t K = static_cast<index_t>(comps.size());
  real_t max_term = -std::numeric_limits<real_t>::max();
  for (index_t k = 0; k < K; ++k) {
    log_terms[k] = comps[k].log_weight +
                   log_gaussian_pdf(x, comps[k].mean.data(), comps[k].ctx, scratch);
    max_term = std::max(max_term, log_terms[k]);
  }
  real_t sum = 0;
  for (index_t k = 0; k < K; ++k) sum += std::exp(log_terms[k] - max_term);
  const real_t log_norm = max_term + std::log(sum);
  for (index_t k = 0; k < K; ++k) resp[k] = std::exp(log_terms[k] - log_norm);
  return log_norm;
}

/// Initial parameters: K distinct random data points as means, the global
/// covariance for every component, uniform weights. Deterministic per seed.
void initialize(const Dataset& data, const EmOptions& options, EmResult* state) {
  const index_t n = data.size();
  const index_t d = data.dim();
  const index_t K = options.num_components;
  Rng rng(options.seed);

  state->num_components = K;
  state->weights.assign(K, real_t(1) / static_cast<real_t>(K));
  state->means.assign(K * d, 0);
  std::vector<index_t> picks;
  while (static_cast<index_t>(picks.size()) < K) {
    const index_t candidate = static_cast<index_t>(rng.uniform_index(n));
    if (std::find(picks.begin(), picks.end(), candidate) == picks.end())
      picks.push_back(candidate);
  }
  for (index_t k = 0; k < K; ++k)
    for (index_t dd = 0; dd < d; ++dd)
      state->means[k * d + dd] = data.coord(picks[k], dd);

  const std::vector<real_t> mean = column_mean(data);
  const std::vector<real_t> cov = covariance(data, mean, options.jitter);
  state->covs.assign(K, cov);
}

/// Standard M-step from responsibilities.
void m_step(const Dataset& data, const std::vector<real_t>& resp, real_t jitter,
            EmResult* state) {
  const index_t n = data.size();
  const index_t d = data.dim();
  const index_t K = state->num_components;

  std::vector<real_t> nk(K, 0);
  std::vector<real_t> mu(K * d, 0);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = 0; k < K; ++k) {
      const real_t r = resp[i * K + k];
      nk[k] += r;
      for (index_t dd = 0; dd < d; ++dd)
        mu[k * d + dd] += r * data.coord(i, dd);
    }
  for (index_t k = 0; k < K; ++k) {
    const real_t denom = std::max(nk[k], real_t(1e-10));
    for (index_t dd = 0; dd < d; ++dd) mu[k * d + dd] /= denom;
  }

  std::vector<std::vector<real_t>> covs(
      K, std::vector<real_t>(static_cast<std::size_t>(d) * d, 0));
  std::vector<real_t> diff(d);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = 0; k < K; ++k) {
      const real_t r = resp[i * K + k];
      if (r < 1e-12) continue;
      for (index_t dd = 0; dd < d; ++dd)
        diff[dd] = data.coord(i, dd) - mu[k * d + dd];
      std::vector<real_t>& cov = covs[k];
      for (index_t a = 0; a < d; ++a)
        for (index_t b = 0; b <= a; ++b) cov[a * d + b] += r * diff[a] * diff[b];
    }
  for (index_t k = 0; k < K; ++k) {
    const real_t denom = std::max(nk[k], real_t(1e-10));
    std::vector<real_t>& cov = covs[k];
    for (index_t a = 0; a < d; ++a)
      for (index_t b = 0; b <= a; ++b) {
        cov[a * d + b] /= denom;
        cov[b * d + a] = cov[a * d + b];
      }
    for (index_t dd = 0; dd < d; ++dd) cov[dd * d + dd] += jitter;
    state->weights[k] = nk[k] / static_cast<real_t>(n);
  }
  state->means = std::move(mu);
  state->covs = std::move(covs);
}

std::vector<Component> freeze_components(const EmResult& state, index_t d) {
  std::vector<Component> comps;
  comps.reserve(state.num_components);
  for (index_t k = 0; k < state.num_components; ++k) {
    std::vector<real_t> mu(state.means.begin() + k * d,
                           state.means.begin() + (k + 1) * d);
    comps.emplace_back(std::move(mu), state.covs[k], d,
                       std::max(state.weights[k], real_t(1e-300)));
  }
  return comps;
}

/// Tree E-step: recursive descent with per-node responsibility bounds.
class TreeEStep {
 public:
  TreeEStep(const KdTree& tree, const std::vector<Component>& comps, real_t tau,
            std::vector<real_t>& resp, bool parallel)
      : tree_(tree),
        comps_(comps),
        tau_(tau),
        resp_(resp),
        parallel_(parallel),
        K_(static_cast<index_t>(comps.size())),
        dim_(tree.data().dim()) {}

  /// Each approximated node and exact leaf stores its log-likelihood partial
  /// at its own (preorder) node index; the partials are summed serially in
  /// preorder afterwards, so the total is bitwise the same at any thread
  /// count (an atomic add would combine them in task completion order).
  real_t run() {
    node_loglik_.assign(static_cast<std::size_t>(tree_.num_nodes()), 0);
    if (parallel_) {
#pragma omp parallel
#pragma omp single nowait
      recurse(tree_.root_index());
    } else {
      recurse(tree_.root_index());
    }
    real_t loglik = 0;
    for (real_t partial : node_loglik_) loglik += partial;
    return loglik;
  }

  std::uint64_t approx_nodes() const { return approx_nodes_; }
  std::uint64_t exact_points() const { return exact_points_; }

 private:
  struct Buffers {
    std::vector<real_t> scratch;   // 2*dim for forward substitution
    std::vector<real_t> log_terms; // K
    std::vector<real_t> resp;      // K
    std::vector<real_t> x;         // dim
    std::vector<real_t> lo;        // K log-term lower bounds
    std::vector<real_t> hi;        // K log-term upper bounds

    explicit Buffers(index_t dim, index_t K)
        : scratch(2 * dim), log_terms(K), resp(K), x(dim), lo(K), hi(K) {}
  };

  /// Responsibility bounds over a node's bounding box; true if the node can
  /// be approximated by its center responsibilities within tau.
  ///
  /// The Mahalanobis norm is sqrt(eig_max(Sigma^{-1}))-Lipschitz in x, so over
  /// a box with half-diagonal rho it stays within +-sqrt(eig_max)*rho of its
  /// value at the box center. That radius shrinks with the box, which is what
  /// lets deep nodes pass the tau test (a plain eig_min*dmin / eig_max*dmax
  /// sandwich never converges when the covariance is anisotropic). Only
  /// tau > 0 approximates: tau = 0 and a NaN tau are exact.
  bool node_within_tau(const KdNode& node, Buffers& buf) {
    if (!(tau_ > 0)) return false;
    node.box.center_point(buf.x.data());
    const real_t half_diag = std::sqrt(node.box.sq_diagonal()) / 2;
    for (index_t k = 0; k < K_; ++k) {
      const Component& c = comps_[k];
      const real_t center_maha_sq =
          c.ctx.sq_dist(buf.x.data(), c.mean.data(), buf.scratch.data());
      const real_t center_maha = std::sqrt(std::max(center_maha_sq, real_t(0)));
      const real_t radius = std::sqrt(c.ctx.eig_max()) * half_diag;
      const real_t norm_lo = std::max(center_maha - radius, real_t(0));
      const real_t norm_hi = center_maha + radius;
      const real_t base = c.log_weight -
                          real_t(0.5) * (static_cast<real_t>(dim_) * std::log(kTwoPi) +
                                         c.ctx.log_det());
      buf.hi[k] = base - real_t(0.5) * norm_lo * norm_lo;
      buf.lo[k] = base - real_t(0.5) * norm_hi * norm_hi;
    }
    // r_k bounds: numerator at its extreme vs. competitors at the opposite.
    real_t worst_gap = 0;
    for (index_t k = 0; k < K_; ++k) {
      real_t denom_hi = std::exp(buf.hi[k]);
      real_t denom_lo = std::exp(buf.lo[k]);
      real_t others_lo = 0, others_hi = 0;
      for (index_t j = 0; j < K_; ++j) {
        if (j == k) continue;
        others_lo += std::exp(buf.lo[j]);
        others_hi += std::exp(buf.hi[j]);
      }
      const real_t r_hi =
          denom_hi > 0 ? denom_hi / (denom_hi + others_lo) : real_t(0);
      const real_t r_lo =
          denom_lo > 0 ? denom_lo / (denom_lo + others_hi) : real_t(0);
      worst_gap = std::max(worst_gap, r_hi - r_lo);
      if (worst_gap > tau_) return false;
    }
    return true;
  }

  void apply_center(index_t node_index, const KdNode& node, Buffers& buf) {
    node.box.center_point(buf.x.data());
    const real_t log_norm = point_responsibilities(
        buf.x.data(), comps_, buf.scratch.data(), buf.log_terms.data(),
        buf.resp.data());
    for (index_t i = node.begin; i < node.end; ++i)
      for (index_t k = 0; k < K_; ++k) resp_[i * K_ + k] = buf.resp[k];
    node_loglik_[node_index] = log_norm * static_cast<real_t>(node.count());
#pragma omp atomic
    approx_nodes_ += 1;
  }

  void exact_leaf(index_t node_index, const KdNode& node, Buffers& buf) {
    real_t local = 0;
    for (index_t i = node.begin; i < node.end; ++i) {
      tree_.data().copy_point(i, buf.x.data());
      local += point_responsibilities(buf.x.data(), comps_, buf.scratch.data(),
                                      buf.log_terms.data(), &resp_[i * K_]);
    }
    node_loglik_[node_index] = local;
#pragma omp atomic
    exact_points_ += static_cast<std::uint64_t>(node.count());
  }

  void recurse(index_t node_index) {
    const KdNode& node = tree_.node(node_index);
    Buffers buf(dim_, K_);
    if (node_within_tau(node, buf)) {
      apply_center(node_index, node, buf);
      return;
    }
    if (node.is_leaf()) {
      exact_leaf(node_index, node, buf);
      return;
    }
    const index_t left = node.left;
    const index_t right = node.right;
    if (parallel_ && node.depth < 8) {
#pragma omp task default(shared)
      recurse(left);
#pragma omp task default(shared)
      recurse(right);
#pragma omp taskwait
    } else {
      recurse(left);
      recurse(right);
    }
  }

  const KdTree& tree_;
  const std::vector<Component>& comps_;
  real_t tau_;
  std::vector<real_t>& resp_;
  bool parallel_;
  index_t K_;
  index_t dim_;
  std::vector<real_t> node_loglik_; // per-node partials, by preorder index
  std::uint64_t approx_nodes_ = 0;
  std::uint64_t exact_points_ = 0;
};

void validate(const Dataset& data, const EmOptions& options) {
  if (options.num_components < 1)
    throw std::invalid_argument("em: need at least one component");
  if (data.size() < options.num_components)
    throw std::invalid_argument("em: fewer points than components");
}

} // namespace

real_t em_estep_exact(const Dataset& data, const std::vector<real_t>& weights,
                      const std::vector<real_t>& means,
                      const std::vector<std::vector<real_t>>& covs, real_t jitter,
                      std::vector<real_t>* resp, bool parallel) {
  (void)jitter;
  const index_t n = data.size();
  const index_t d = data.dim();
  const index_t K = static_cast<index_t>(weights.size());
  resp->assign(static_cast<std::size_t>(n) * K, 0);

  std::vector<Component> comps;
  comps.reserve(K);
  for (index_t k = 0; k < K; ++k) {
    std::vector<real_t> mu(means.begin() + k * d, means.begin() + (k + 1) * d);
    comps.emplace_back(std::move(mu), covs[k], d,
                       std::max(weights[k], real_t(1e-300)));
  }

  // Per-point log-likelihoods, summed serially in index order below: an
  // OpenMP reduction combines per-thread partials in arrival order, so the
  // total would change in its last bits from run to run.
  std::vector<real_t> point_loglik(static_cast<std::size_t>(n));
#pragma omp parallel if (parallel)
  {
    std::vector<real_t> scratch(2 * d), log_terms(K), x(d);
#pragma omp for schedule(static)
    for (index_t i = 0; i < n; ++i) {
      data.copy_point(i, x.data());
      point_loglik[i] = point_responsibilities(x.data(), comps, scratch.data(),
                                               log_terms.data(), &(*resp)[i * K]);
    }
  }
  real_t loglik = 0;
  for (real_t value : point_loglik) loglik += value;
  return loglik;
}

EmResult em_bruteforce(const Dataset& data, const EmOptions& options) {
  validate(data, options);
  EmResult state;
  initialize(data, options, &state);
  const index_t K = options.num_components;

  real_t previous = -std::numeric_limits<real_t>::max();
  for (index_t iter = 0; iter < options.max_iters; ++iter) {
    const real_t loglik = em_estep_exact(data, state.weights, state.means,
                                         state.covs, options.jitter, &state.resp,
                                         options.parallel);
    state.loglik_history.push_back(loglik);
    state.log_likelihood = loglik;
    state.iters = iter + 1;
    m_step(data, state.resp, options.jitter, &state);
    if (std::abs(loglik - previous) <
        options.tol * std::max(std::abs(loglik), real_t(1)))
      break;
    previous = loglik;
  }
  state.exact_points =
      static_cast<std::uint64_t>(data.size()) * static_cast<std::uint64_t>(state.iters);
  (void)K;
  return state;
}

EmResult em_expert(const Dataset& data, const EmOptions& options) {
  validate(data, options);
  const KdTree tree(data, options.leaf_size);
  const Dataset& tdata = tree.data(); // permuted

  EmResult state;
  // Initialize from the *original* order so a given seed yields the same
  // starting parameters as em_bruteforce (the tau = 0 equivalence tests rely
  // on identical trajectories).
  initialize(data, options, &state);
  const index_t K = options.num_components;
  const index_t n = data.size();
  state.resp.assign(static_cast<std::size_t>(n) * K, 0);

  real_t previous = -std::numeric_limits<real_t>::max();
  for (index_t iter = 0; iter < options.max_iters; ++iter) {
    const std::vector<Component> comps = freeze_components(state, data.dim());
    TreeEStep estep(tree, comps, options.tau, state.resp, options.parallel);
    const real_t loglik = estep.run();
    state.approx_nodes += estep.approx_nodes();
    state.exact_points += estep.exact_points();
    state.loglik_history.push_back(loglik);
    state.log_likelihood = loglik;
    state.iters = iter + 1;
    m_step(tdata, state.resp, options.jitter, &state);
    if (std::abs(loglik - previous) <
        options.tol * std::max(std::abs(loglik), real_t(1)))
      break;
    previous = loglik;
  }

  // Un-permute the final responsibilities to original point order.
  std::vector<real_t> resp(static_cast<std::size_t>(n) * K);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = 0; k < K; ++k)
      resp[tree.perm()[i] * K + k] = state.resp[i * K + k];
  state.resp = std::move(resp);
  return state;
}

} // namespace portal
