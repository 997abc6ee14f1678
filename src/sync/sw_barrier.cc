#include "sync/sw_barrier.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "coherence/protocol.h"
#include "core/timebreak.h"

namespace glb::sync {

using coherence::AmoOp;
using core::CategoryScope;
using core::Core;
using core::Task;
using core::TimeCat;

// ---------------------------------------------------------------------------
// GL adapter (declared in barrier.h)
// ---------------------------------------------------------------------------

Task GlBarrier::Wait(Core& core) { co_await core.GlBarrier(); }

// ---------------------------------------------------------------------------
// CSW
// ---------------------------------------------------------------------------

CentralBarrier::CentralBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores)
    : num_cores_(num_cores),
      counter_(alloc.AllocVar()),
      sense_(alloc.AllocVar()),
      local_sense_(num_cores, 0) {
  GLB_CHECK(num_cores > 0) << "barrier without participants";
}

Task CentralBarrier::Wait(Core& core) {
  CategoryScope scope(core, TimeCat::kBarrier);
  core.NoteBarrier();
  const Word my_sense = local_sense_[core.rank()] ^ 1;
  local_sense_[core.rank()] = my_sense;

  const Word prior = co_await core.Amo(counter_, AmoOp::kFetchAdd, 1);
  if (prior == num_cores_ - 1) {
    // Last arriver: reset the counter, then flip the global sense.
    co_await core.Store(counter_, 0);
    co_await core.Store(sense_, my_sense);
  } else {
    // S2 busy-wait: spins locally in S until the release invalidates.
    co_await core.SpinUntil(sense_, [my_sense](Word s) { return s == my_sense; });
  }
}

// ---------------------------------------------------------------------------
// DSW
// ---------------------------------------------------------------------------

TreeBarrier::TreeBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores,
                         std::uint32_t fanin)
    : num_cores_(num_cores), fanin_(fanin), local_sense_(num_cores, 0) {
  GLB_CHECK(num_cores > 0) << "barrier without participants";
  GLB_CHECK(fanin >= 2) << "combining tree needs fan-in >= 2";

  // Build the tree level by level, leaves first. Level 0 nodes absorb
  // `fanin` cores each; each higher level combines `fanin` lower nodes.
  leaf_of_core_.resize(num_cores);
  std::vector<std::uint32_t> level;  // node indices of the current level
  const std::uint32_t num_leaves = (num_cores + fanin - 1) / fanin;
  for (std::uint32_t l = 0; l < num_leaves; ++l) {
    const std::uint32_t first_core = l * fanin;
    const std::uint32_t count =
        std::min(fanin, num_cores - first_core);
    Node n;
    n.count_addr = alloc.AllocVar();
    n.release_addr = alloc.AllocVar();
    n.expected = count;
    n.parent = kRoot;
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(n);
    level.push_back(idx);
    for (std::uint32_t c = first_core; c < first_core + count; ++c) {
      leaf_of_core_[c] = idx;
    }
  }
  while (level.size() > 1) {
    std::vector<std::uint32_t> next;
    for (std::uint32_t i = 0; i < level.size(); i += fanin) {
      const std::uint32_t count =
          std::min<std::uint32_t>(fanin, static_cast<std::uint32_t>(level.size()) - i);
      Node n;
      n.count_addr = alloc.AllocVar();
      n.release_addr = alloc.AllocVar();
      n.expected = count;
      n.parent = kRoot;
      const auto idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(n);
      for (std::uint32_t j = 0; j < count; ++j) nodes_[level[i + j]].parent = idx;
      next.push_back(idx);
    }
    level = std::move(next);
  }
}

Task TreeBarrier::Wait(Core& core) {
  CategoryScope scope(core, TimeCat::kBarrier);
  core.NoteBarrier();
  const Word my_sense = local_sense_[core.rank()] ^ 1;
  local_sense_[core.rank()] = my_sense;

  // Ascend: keep climbing while we are the node's last arriver,
  // remembering the nodes we now own the release of. A fan-in of at
  // least 2 bounds the depth by 32, so they fit on the frame.
  std::array<std::uint32_t, 32> owned;
  std::size_t num_owned = 0;
  std::uint32_t node = leaf_of_core_[core.rank()];
  while (true) {
    const Word prior = co_await core.Amo(nodes_[node].count_addr, AmoOp::kFetchAdd, 1);
    if (prior + 1 < nodes_[node].expected) {
      // Not last: busy-wait on this node's release word (S2 stage).
      co_await core.SpinUntil(nodes_[node].release_addr,
                              [my_sense](Word r) { return r == my_sense; });
      break;
    }
    // Last arriver here: this node is complete.
    if (nodes_[node].parent == kRoot) {
      // Root winner: the global barrier is complete; start the release.
      co_await core.Store(nodes_[node].count_addr, 0);
      co_await core.Store(nodes_[node].release_addr, my_sense);
      break;
    }
    owned[num_owned++] = node;
    node = nodes_[node].parent;
  }

  // Descend: release every node we won on the way up (their waiters are
  // spinning on the release words).
  while (num_owned > 0) {
    const std::uint32_t won = owned[--num_owned];
    co_await core.Store(nodes_[won].count_addr, 0);
    co_await core.Store(nodes_[won].release_addr, my_sense);
  }
}

}  // namespace glb::sync
