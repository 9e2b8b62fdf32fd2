#include "tree/snapshot.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace portal {

std::shared_ptr<const TreeSnapshot> TreeSnapshot::build(
    std::shared_ptr<const Dataset> source, std::uint64_t epoch,
    const SnapshotOptions& options) {
  if (!source || source->empty())
    throw std::invalid_argument("TreeSnapshot::build: empty dataset");
  if (options.build_octree && source->dim() != 3)
    throw std::invalid_argument(
        "TreeSnapshot::build: octree snapshots require 3-D data");

  auto snap = std::shared_ptr<TreeSnapshot>(new TreeSnapshot());
  snap->epoch_ = epoch;
  snap->source_ = std::move(source);
  // Each tree copies + permutes the dataset internally, so the builds are
  // independent of each other and of later reads of source_.
  if (options.build_kd)
    snap->kd_ = std::make_shared<const KdTree>(*snap->source_, options.leaf_size);
  if (options.build_octree) {
    const std::vector<real_t> unit_masses(
        static_cast<std::size_t>(snap->source_->size()), real_t{1});
    snap->octree_ = std::make_shared<const Octree>(*snap->source_, unit_masses,
                                                   options.leaf_size);
  }
  if (options.build_graph)
    snap->graph_ = std::make_shared<const KnnGraph>(*snap->source_,
                                                    options.graph, snap->kd_);
  return snap;
}

std::shared_ptr<const TreeSnapshot> SnapshotSlot::publish(
    std::shared_ptr<const Dataset> source, const SnapshotOptions& options) {
  std::lock_guard<std::mutex> writer(publish_mutex_);
  const std::uint64_t epoch = next_epoch_++;
  // The expensive part -- tree construction -- happens with only the writer
  // lock held; readers keep load()ing the previous epoch throughout.
  std::shared_ptr<const TreeSnapshot> snap =
      TreeSnapshot::build(std::move(source), epoch, options);
  install(snap, epoch);
  return snap;
}

std::shared_ptr<const TreeSnapshot> SnapshotSlot::publish_with(
    const SnapshotBuilder& build) {
  std::lock_guard<std::mutex> writer(publish_mutex_);
  const std::uint64_t epoch = next_epoch_++;
  std::shared_ptr<const TreeSnapshot> snap = build(epoch);
  install(std::move(snap), epoch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }
}

void SnapshotSlot::install(std::shared_ptr<const TreeSnapshot> snap,
                           std::uint64_t granted) {
  if (!snap)
    throw std::logic_error("SnapshotSlot: builder returned a null snapshot");
  if (snap->epoch() != granted)
    throw std::logic_error(
        "SnapshotSlot: builder returned a snapshot stamped with epoch " +
        std::to_string(snap->epoch()) + ", but epoch " +
        std::to_string(granted) + " was granted (stale snapshot reused?)");
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t cur = current_ ? current_->epoch() : 0;
  if (snap->epoch() <= cur || snap->epoch() < max_observed_)
    throw std::logic_error(
        "SnapshotSlot: publishing epoch " + std::to_string(snap->epoch()) +
        " would move the slot backward (current " + std::to_string(cur) +
        ", max observed " + std::to_string(max_observed_) + ")");
  current_ = std::move(snap);
}

} // namespace portal
