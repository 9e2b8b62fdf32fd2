#include "tree/delta.h"

#include <cassert>
#include <stdexcept>

namespace portal {

DeltaTree::DeltaTree(index_t dim, index_t capacity, index_t main_size)
    : points_(capacity, dim),
      insert_seq_(static_cast<std::size_t>(capacity), 0),
      kill_seq_(static_cast<std::size_t>(capacity)),
      main_kill_seq_(static_cast<std::size_t>(main_size)) {
  if (dim <= 0 || capacity <= 0 || main_size < 0)
    throw std::invalid_argument("DeltaTree: non-positive dim/capacity");
  log_.reserve(static_cast<std::size_t>(capacity));
}

index_t DeltaTree::append(const real_t* point, std::uint64_t seq) {
  if (count_ >= capacity()) return -1;
  const index_t slot = count_;
  for (index_t d = 0; d < points_.dim(); ++d)
    points_.coord(slot, d) = point[d];
  insert_seq_[static_cast<std::size_t>(slot)] = seq;
  log_.push_back({seq, MutationKind::Insert, slot});
  // count_ itself only becomes reader-visible through a LiveView pinned
  // under the owner's mutex, which orders the coordinate writes above.
  ++count_;
  return slot;
}

void DeltaTree::kill_slot(index_t slot, std::uint64_t seq) {
  assert(slot >= 0 && slot < count_);
  assert(kill_seq_[static_cast<std::size_t>(slot)].load(
             std::memory_order_relaxed) == 0);
  kill_seq_[static_cast<std::size_t>(slot)].store(seq,
                                                  std::memory_order_relaxed);
  log_.push_back({seq, MutationKind::RemoveDelta, slot});
}

void DeltaTree::kill_main(index_t permuted_index, std::uint64_t seq) {
  assert(permuted_index >= 0 && permuted_index < main_size());
  assert(main_kill_seq_[static_cast<std::size_t>(permuted_index)].load(
             std::memory_order_relaxed) == 0);
  main_kill_seq_[static_cast<std::size_t>(permuted_index)].store(
      seq, std::memory_order_relaxed);
  append_main_kill(permuted_index);
  log_.push_back({seq, MutationKind::RemoveMain, permuted_index});
}

void DeltaTree::append_main_kill(index_t permuted_index) {
  // One reservation for every index: each dies at most once, so later
  // appends never reallocate under a reader.
  if (main_kills_.capacity() == 0)
    main_kills_.reserve(static_cast<std::size_t>(main_size()));
  main_kills_.push_back(permuted_index);
}

void DeltaTree::copy_main_kills(const DeltaTree& from) {
  assert(main_size() == from.main_size() && main_kills_.empty());
  for (const index_t i : from.main_kills_) {
    main_kill_seq_[static_cast<std::size_t>(i)].store(
        from.main_kill_seq_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed),
        std::memory_order_relaxed);
    append_main_kill(i);
  }
}

index_t LiveView::main_visible_count(index_t begin, index_t end) const {
  const index_t n = end - begin;
  if (main_kills == 0) return n;
  if (n > main_kills) {
    // Fewer visible kills than points: subtract the kills inside the range
    // (one unsigned compare tests begin <= j < end).
    const index_t* kills = delta->main_kills();
    index_t dead = 0;
    for (index_t k = 0; k < main_kills; ++k)
      dead += static_cast<std::uint64_t>(kills[k] - begin) <
                      static_cast<std::uint64_t>(n)
                  ? 1
                  : 0;
    return n - dead;
  }
  index_t alive = 0;
  for (index_t j = begin; j < end; ++j)
    alive += delta->main_dead(j, watermark) ? 0 : 1;
  return alive;
}

index_t LiveView::live_size() const {
  index_t n = snapshot ? snapshot->size() : 0;
  if (!delta) return n;
  n -= main_kills;
  for (index_t s = 0; s < delta_count; ++s)
    n += delta->slot_dead(s, watermark) ? 0 : 1;
  return n;
}

} // namespace portal
