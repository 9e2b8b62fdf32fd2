// Portal -- octree for 3-D particle problems (Barnes-Hut, paper Sec. II-A).
//
// Cubic cells recursively subdivided into 8 octants until at most
// `leaf_size` particles remain. Each node carries the Barnes-Hut metadata:
// total mass, center of mass, and the cell side length used by the
// multipole-acceptance criterion s/d < theta. Particles (and their masses)
// are permuted so leaves own contiguous ranges, like the kd-tree.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "tree/bbox.h"
#include "tree/soa_mirror.h"
#include "util/common.h"

namespace portal {

struct OctreeNode {
  index_t begin = 0;
  index_t end = 0;
  index_t children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  index_t depth = 0;
  real_t center[3] = {0, 0, 0};     // geometric cell center
  real_t half_width = 0;            // half the cell side length
  real_t com[3] = {0, 0, 0};        // center of mass
  real_t mass = 0;
  bool leaf = true;
  BBox box;                         // tight box, for dual-tree bounds

  bool is_leaf() const { return leaf; }
  index_t count() const { return end - begin; }
  real_t side() const { return 2 * half_width; }
};

/// Structural summary plus build timing, mirroring KdTreeStats
/// so benches report the build vs. traverse split uniformly across trees.
struct OctreeStats {
  index_t num_nodes = 0;
  index_t num_leaves = 0;
  index_t height = 0;
  index_t max_leaf_count = 0;
  double build_seconds = 0;
};

class Octree {
 public:
  /// positions must be 3-D; masses.size() must equal positions.size().
  /// The octant recursion itself is serial (cell subdivision is already
  /// cheap next to the kd-tree's median selection); `parallel_build` only
  /// parallelizes the permuted positions/masses materialization.
  Octree(const Dataset& positions, const std::vector<real_t>& masses,
         index_t leaf_size = 16, bool parallel_build = true);

  const Dataset& positions() const { return positions_; }
  /// SoA mirror of positions() for the batched base cases (tree/soa_mirror.h).
  const SoaMirror& mirror() const { return mirror_; }
  const std::vector<real_t>& masses() const { return masses_; }
  const std::vector<index_t>& perm() const { return perm_; }
  const std::vector<index_t>& inverse_perm() const { return inv_perm_; }

  const OctreeNode& node(index_t i) const { return nodes_[i]; }
  index_t root_index() const { return 0; }
  index_t num_nodes() const { return static_cast<index_t>(nodes_.size()); }
  index_t height() const { return height_; }
  const OctreeStats& stats() const { return stats_; }

 private:
  index_t build_recursive(std::vector<index_t>& order, index_t begin, index_t end,
                          const real_t center[3], real_t half_width, index_t depth,
                          const Dataset& input, const std::vector<real_t>& input_mass);

  Dataset positions_;
  SoaMirror mirror_;
  std::vector<real_t> masses_;
  std::vector<index_t> perm_;
  std::vector<index_t> inv_perm_;
  std::vector<OctreeNode> nodes_;
  index_t leaf_size_ = 16;
  index_t height_ = 0;
  OctreeStats stats_;
};

} // namespace portal
