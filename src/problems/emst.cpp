#include "problems/emst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include <omp.h>

#include "kernels/batch.h"
#include "problems/common.h"
#include "traversal/multitree.h"
#include "util/threading.h"

namespace portal {
namespace {

/// Union-find with path halving + union by size.
class UnionFind {
 public:
  explicit UnionFind(index_t n) : parent_(n), size_(n, 1) {
    for (index_t i = 0; i < n; ++i) parent_[i] = i;
  }

  index_t find(index_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool unite(index_t a, index_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<index_t> parent_;
  std::vector<index_t> size_;
};

/// One Boruvka round's dual-tree nearest-foreign-neighbor rules.
class EmstRules {
 public:
  EmstRules(const KdTree& tree, const std::vector<index_t>& comp,
            const std::vector<index_t>& node_comp)
      : tree_(tree),
        comp_(comp),
        node_comp_(node_comp),
        node_bounds_(tree.num_nodes()),
        best_dist_(tree.data().size(), std::numeric_limits<real_t>::max()),
        best_to_(tree.data().size(), -1),
        workspaces_(num_threads()) {
    const index_t max_leaf = tree.stats().max_leaf_count;
    for (Workspace& ws : workspaces_) {
      ws.lower.resize(batch::whole_blocks(max_leaf));
      ws.rows.resize(max_leaf);
      ws.dists.resize(batch::kDistRows * batch::whole_blocks(max_leaf));
    }
  }

  const std::vector<real_t>& best_dist() const { return best_dist_; }
  const std::vector<index_t>& best_to() const { return best_to_; }

  bool prune_or_approx(index_t q, index_t r) {
    // Fully-connected prune: every pair inside one component is useless.
    if (node_comp_[q] >= 0 && node_comp_[q] == node_comp_[r]) return true;
    const real_t dmin =
        tree_.node(q).box.min_sq_dist(tree_.node(r).box);
    return dmin > node_bounds_[q].load();
  }

  real_t score(index_t q, index_t r) {
    return tree_.node(q).box.min_sq_dist(tree_.node(r).box);
  }

  void base_case(index_t q, index_t r) {
    const KdNode& qnode = tree_.node(q);
    const KdNode& rnode = tree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    const index_t rcount = rnode.count();

    // Point-level prune: the whole reference leaf may be farther than a
    // point's current candidate. One bound pass covers the query leaf.
    const batch::Tile rows = tree_.mirror().tile(qnode.begin, qnode.count());
    batch::box_sq_lower(rows, rnode.box.lo_data(), rnode.box.hi_data(),
                        ws.lower.data());
    index_t selected = 0;
    for (index_t i = 0; i < qnode.count(); ++i)
      if (ws.lower[i] <= best_dist_[qnode.begin + i]) ws.rows[selected++] = i;

    // kDistRows rows at a time share each loaded reference block.
    const batch::Tile ref = tree_.mirror().tile(rnode.begin, rcount);
    const index_t run = batch::whole_blocks(rcount);
    for (index_t g = 0; g < selected; g += batch::kDistRows) {
      const index_t n = std::min(batch::kDistRows, selected - g);
      batch::sq_dists_rows(rows, ws.rows.data() + g, n, ref, ws.dists.data());
      for (index_t s = 0; s < n; ++s) {
        const index_t qi = qnode.begin + ws.rows[g + s];
        const index_t qc = comp_[qi];
        const real_t* dists = ws.dists.data() + s * run;
        real_t best = best_dist_[qi];
        index_t best_j = best_to_[qi];
        for (index_t j = 0; j < rcount; ++j) {
          const index_t rj = rnode.begin + j;
          if (comp_[rj] == qc) continue; // same component: not an MST edge
          if (dists[j] < best) {
            best = dists[j];
            best_j = rj;
          }
        }
        best_dist_[qi] = best;
        best_to_[qi] = best_j;
      }
    }

    real_t leaf_bound = 0;
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi)
      leaf_bound = std::max(leaf_bound, best_dist_[qi]);

    node_bounds_[q].store_min(leaf_bound);
    index_t parent = qnode.parent;
    while (parent >= 0) {
      const KdNode& pnode = tree_.node(parent);
      const real_t combined = std::max(node_bounds_[pnode.left].load(),
                                       node_bounds_[pnode.right].load());
      if (combined >= node_bounds_[parent].load()) break;
      node_bounds_[parent].store_min(combined);
      parent = pnode.parent;
    }
  }

 private:
  struct Workspace {
    std::vector<real_t> lower; // the query leaf's point-to-box bounds
    std::vector<index_t> rows; // the leaf rows the bound lets through
    std::vector<real_t> dists; // kDistRows distance runs, whole blocks
  };

  const KdTree& tree_;
  const std::vector<index_t>& comp_;
  const std::vector<index_t>& node_comp_;
  std::vector<AtomicBound> node_bounds_;
  std::vector<real_t> best_dist_;
  std::vector<index_t> best_to_;
  std::vector<Workspace> workspaces_;
};

/// Per-node single-component labels for the fully-connected prune:
/// node_comp[i] is the component id shared by all points under node i, or -1.
void label_nodes(const KdTree& tree, const std::vector<index_t>& comp,
                 std::vector<index_t>* node_comp) {
  node_comp->assign(tree.num_nodes(), -1);
  // Nodes are stored parent-before-children; walk backwards for post-order.
  for (index_t i = tree.num_nodes() - 1; i >= 0; --i) {
    const KdNode& node = tree.node(i);
    if (node.is_leaf()) {
      index_t label = comp[node.begin];
      for (index_t p = node.begin + 1; p < node.end; ++p)
        if (comp[p] != label) {
          label = -1;
          break;
        }
      (*node_comp)[i] = label;
    } else {
      const index_t l = (*node_comp)[node.left];
      const index_t r = (*node_comp)[node.right];
      (*node_comp)[i] = (l >= 0 && l == r) ? l : -1;
    }
  }
}

} // namespace

EmstResult emst_bruteforce(const Dataset& data) {
  const index_t n = data.size();
  if (n < 2) throw std::invalid_argument("emst: need at least 2 points");
  EmstResult result;

  // Prim with O(N^2) candidate maintenance.
  std::vector<bool> in_tree(n, false);
  std::vector<real_t> best(n, std::numeric_limits<real_t>::max());
  std::vector<index_t> from(n, -1);
  std::vector<real_t> seed_pt(data.dim());
  std::vector<real_t> dists(n);

  in_tree[0] = true;
  data.copy_point(0, seed_pt.data());
  sq_dists_to_range(data, 0, n, seed_pt.data(), dists.data());
  for (index_t j = 1; j < n; ++j) {
    best[j] = dists[j];
    from[j] = 0;
  }

  for (index_t round = 1; round < n; ++round) {
    index_t pick = -1;
    real_t pick_dist = std::numeric_limits<real_t>::max();
    for (index_t j = 0; j < n; ++j)
      if (!in_tree[j] && best[j] < pick_dist) {
        pick_dist = best[j];
        pick = j;
      }
    in_tree[pick] = true;
    const real_t w = std::sqrt(pick_dist);
    result.edges.push_back({from[pick], pick, w});
    result.total_weight += w;

    data.copy_point(pick, seed_pt.data());
    sq_dists_to_range(data, 0, n, seed_pt.data(), dists.data());
    for (index_t j = 0; j < n; ++j)
      if (!in_tree[j] && dists[j] < best[j]) {
        best[j] = dists[j];
        from[j] = pick;
      }
  }
  return result;
}

EmstResult emst_expert(const Dataset& data, const EmstOptions& options) {
  const index_t n = data.size();
  if (n < 2) throw std::invalid_argument("emst: need at least 2 points");

  const KdTree tree(data, options.leaf_size);
  UnionFind uf(n);
  std::vector<index_t> comp(n);     // permuted-order component labels
  std::vector<index_t> node_comp;
  EmstResult result;

  TraversalOptions topt;
  topt.parallel = options.parallel;
  topt.task_depth = options.task_depth;

  index_t num_components = n;
  while (num_components > 1) {
    ++result.boruvka_rounds;
    for (index_t i = 0; i < n; ++i) comp[i] = uf.find(i);
    label_nodes(tree, comp, &node_comp);

    EmstRules rules(tree, comp, node_comp);
    result.stats += dual_traverse(tree, tree, rules, topt);

    // Reduce per-point candidates to one winning edge per component.
    struct Candidate {
      real_t dist = std::numeric_limits<real_t>::max();
      index_t a = -1, b = -1;
    };
    std::vector<Candidate> winner(n); // indexed by component root
    for (index_t i = 0; i < n; ++i) {
      const index_t to = rules.best_to()[i];
      if (to < 0) continue;
      Candidate& w = winner[comp[i]];
      if (rules.best_dist()[i] < w.dist) {
        w.dist = rules.best_dist()[i];
        w.a = i;
        w.b = to;
      }
    }

    // Contract: add each component's winning edge unless a previous merge in
    // this round already united the endpoints (Boruvka dedup).
    for (index_t c = 0; c < n; ++c) {
      const Candidate& w = winner[c];
      if (w.a < 0) continue;
      if (uf.unite(w.a, w.b)) {
        const real_t weight = std::sqrt(w.dist);
        result.edges.push_back(
            {tree.perm()[w.a], tree.perm()[w.b], weight});
        result.total_weight += weight;
        --num_components;
      }
    }
  }

  std::sort(result.edges.begin(), result.edges.end());
  return result;
}

} // namespace portal
