#include "core/es_tree.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>

#include "parallel/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"

namespace parspan {

void ESTree::init(size_t n,
                  const std::vector<std::pair<VertexId, VertexId>>& arcs,
                  const std::vector<uint32_t>& ranks, VertexId source,
                  uint32_t L) {
  assert(arcs.size() == ranks.size());
  assert(arcs.size() < UINT32_MAX);
  source_ = source;
  L_ = L;
  size_t num_arcs = arcs.size();
  arcs_.resize(num_arcs);
  dist_.assign(n, L + 1);
  scan_key_.assign(n, kHeadKey);
  parent_arc_.assign(n, kNoArc);
  changed_epoch_.assign(n, 0);
  old_parent_.assign(n, kNoArc);
  in_unew_.assign(n, 0);
  dist_bumped_epoch_.assign(n, 0);
  changed_list_.clear();
  batch_epoch_ = 0;
  unew_epoch_ = 0;

  std::vector<uint32_t> srcs(num_arcs);
  parallel_for(0, num_arcs, [&](size_t i) {
    auto [u, v] = arcs[i];
    arcs_[i] = Arc{u, v, key_of(ranks[i], uint32_t(i)), true};
    srcs[i] = u;
  });
  // Out-arcs as a flat CSR layout (histogram -> scan -> scatter): arcs are
  // only ever invalidated after init, never added, so the slices stay valid
  // for the lifetime of the tree.
  {
    GroupedIndices out = group_by_key(n, srcs);
    out_offsets_ = std::move(out.offsets);
    out_arcs_ = std::move(out.items);
  }
  // In-lists: a stable grouping of the arc ids by rank lists them by
  // ascending key; read backwards and regrouped stably by destination, it
  // leaves every In(v) in descending key order with no per-vertex sort.
  {
    size_t max_rank = parallel_reduce(
        0, num_arcs, size_t{0}, [&](size_t i) { return size_t(ranks[i]); },
        [](size_t a, size_t b) { return a < b ? b : a; });
    std::vector<uint32_t> by_key = group_runs(max_rank + 1, ranks).items;
    auto desc = [&](size_t j) { return by_key[num_arcs - 1 - j]; };
    std::vector<uint32_t> dsts(num_arcs);
    parallel_for(0, num_arcs,
                 [&](size_t j) { dsts[j] = arcs[desc(j)].second; });
    GroupedIndices by_dst = group_by_key(n, dsts);
    in_off_ = std::move(by_dst.offsets);
    in_len_.resize(n);
    in_key_.resize(num_arcs);
    parallel_for(0, n, [&](size_t v) {
      uint32_t lo = in_off_[v], hi = in_off_[v + 1];
      in_len_[v] = hi - lo;
      for (uint32_t j = lo; j < hi; ++j) {
        uint32_t a = desc(by_dst.items[j]);
        in_key_[j] = key_of(ranks[a], a);
      }
    });
    counters_.list_ops += num_arcs;
  }

  // Bounded BFS from the source over the CSR out-slices (Lemma 3.2).
  dist_[source] = 0;
  std::vector<VertexId> frontier = {source};
  for (uint32_t level = 0; level < L && !frontier.empty(); ++level) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (uint32_t j = out_offsets_[u]; j < out_offsets_[u + 1]; ++j) {
        VertexId w = arcs_[out_arcs_[j]].dst;
        if (dist_[w] == L + 1) {
          dist_[w] = level + 1;
          next.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }

  // Parent selection: NextWith from the head of each In(v) (Invariant A1).
  std::vector<VertexId> reached;
  for (VertexId v = 0; v < n; ++v)
    if (v != source && dist_[v] <= L) reached.push_back(v);
  parallel_for(0, reached.size(), [&](size_t i) {
    VertexId v = reached[i];
    int32_t a = next_with(v, kHeadKey);
    assert(a != kNoArc && "BFS-reached vertex must have a parent candidate");
    parent_arc_[v] = a;
    scan_key_[v] = arcs_[a].key;
  });
}

int32_t ESTree::next_with(VertexId v, uint64_t from_key) {
  int32_t found = kNoArc;
  uint32_t want = dist_[v] - 1;
  const uint64_t* keys = in_key_.data() + in_off_[v];
  uint32_t len = in_len_[v];
  uint32_t j = slot_at_or_below(v, from_key);
  uint64_t steps = 0;
  for (; j < len; ++j) {
    ++steps;
    uint32_t a = uint32_t(keys[j]);
    if (arcs_[a].valid && dist_[arcs_[a].src] == want) {
      found = static_cast<int32_t>(a);
      break;
    }
  }
  // next_with runs inside parallel loops (Algorithm 1's per-phase scans,
  // the cluster cascade's phase A), where the shared counter add must be
  // atomic; serial callers skip the RMW. The sum is order-independent
  // either way, keeping the counters deterministic.
  if (in_parallel()) {
    std::atomic_ref<uint64_t>(counters_.scan_steps)
        .fetch_add(steps, std::memory_order_relaxed);
  } else {
    counters_.scan_steps += steps;
  }
  return found;
}

uint32_t ESTree::slot_at_or_below(VertexId v, uint64_t key) const {
  const uint64_t* keys = in_key_.data() + in_off_[v];
  return uint32_t(
      std::lower_bound(keys, keys + in_len_[v], key, std::greater<>()) -
      keys);
}

void ESTree::note_parent_change(VertexId v) {
  if (changed_epoch_[v] != batch_epoch_) {
    changed_epoch_[v] = batch_epoch_;
    old_parent_[v] = parent_arc_[v];
    changed_list_.push_back(v);
  }
}

ESTree::DeletionReport ESTree::delete_arcs(std::span<const uint32_t> arc_ids) {
  DeletionReport report;
  ++batch_epoch_;

  // --- Step 1: remove all the arcs from the data structures. ---
  // Batched: invalidate serially (dedups repeated ids), then group the
  // doomed arcs by destination — distinct destinations own disjoint
  // slices, so the erases run as a parallel loop over groups. Each group
  // binary-searches its arcs' slots, then compacts its slice in one pass
  // from the first slot. The orphan list is compiled serially in (dst, arc)
  // order afterwards, which keeps every downstream queue fill deterministic
  // across thread counts.
  std::vector<std::pair<VertexId, uint32_t>> doomed;
  doomed.reserve(arc_ids.size());
  for (uint32_t a : arc_ids) {
    if (a >= arcs_.size() || !arcs_[a].valid) continue;
    arcs_[a].valid = false;
    doomed.push_back({arcs_[a].dst, a});
  }
  parallel_sort(doomed);
  std::vector<size_t> group_start;
  for (size_t i = 0; i < doomed.size(); ++i)
    if (i == 0 || doomed[i].first != doomed[i - 1].first)
      group_start.push_back(i);
  group_start.push_back(doomed.size());
  size_t num_groups = group_start.size() - 1;
  std::vector<uint8_t> lost_parent(num_groups, 0);
  std::vector<uint32_t> slots(doomed.size());
  parallel_for(0, num_groups, [&](size_t g) {
    size_t lo = group_start[g], hi = group_start[g + 1];
    VertexId dst = doomed[lo].first;
    for (size_t i = lo; i < hi; ++i) {
      uint32_t a = doomed[i].second;
      slots[i] = slot_at_or_below(dst, arcs_[a].key);
      assert(uint32_t(in_key_[in_off_[dst] + slots[i]]) == a);
      if (parent_arc_[dst] == int32_t(a)) lost_parent[g] = 1;
    }
    std::sort(slots.begin() + lo, slots.begin() + hi);
    uint64_t* keys = in_key_.data() + in_off_[dst];
    uint32_t len = in_len_[dst];
    uint32_t w = slots[lo];
    for (size_t i = lo; i < hi; ++i) {
      uint32_t r0 = slots[i] + 1;
      uint32_t r1 = i + 1 < hi ? slots[i + 1] : len;
      std::copy(keys + r0, keys + r1, keys + w);
      w += r1 - r0;
    }
    in_len_[dst] = w;
  });
  counters_.list_ops += doomed.size();
  std::vector<VertexId> orphaned;  // tree-arc destinations
  for (size_t g = 0; g < num_groups; ++g) {
    if (!lost_parent[g]) continue;
    VertexId dst = doomed[group_start[g]].first;
    note_parent_change(dst);
    parent_arc_[dst] = kNoArc;
    orphaned.push_back(dst);
  }

  // --- Step 2: each orphaned vertex advances Scan(v) with NextWith. ---
  // Successful vertices keep their distance; failures become "pending" and
  // will enter U at phase i = Dist(v) (pseudocode line 12).
  std::vector<std::vector<VertexId>> pending_by_dist(L_ + 2);
  uint32_t min_phase = L_ + 1;
  parallel_for(0, orphaned.size(), [&](size_t idx) {
    VertexId v = orphaned[idx];
    int32_t a = next_with(v, scan_key_[v]);
    if (a != kNoArc) {
      parent_arc_[v] = a;
      scan_key_[v] = arcs_[a].key;
    } else {
      scan_key_[v] = kHeadKey;  // reset for the post-bump rescan
    }
  });
  for (VertexId v : orphaned) {
    if (parent_arc_[v] == kNoArc) {
      pending_by_dist[dist_[v]].push_back(v);
      min_phase = std::min(min_phase, dist_[v]);
      ++counters_.queue_pushes;
    }
  }

  // --- Phase loop (Algorithm 1 lines 4-15). ---
  // Members of U at phase i carry Dist = i (set at the end of phase i-1).
  std::vector<VertexId> U;
  if (in_unew_.size() < dist_.size()) in_unew_.assign(dist_.size(), 0);
  size_t pending_left = 0;
  for (auto& b : pending_by_dist) pending_left += b.size();

  for (uint32_t i = min_phase; i <= L_; ++i) {
    if (U.empty() && pending_left == 0) break;
    ++unew_epoch_;
    // Line 7: parallel NextWith for all U members (their Dist is i, so they
    // seek parents at distance i-1; those distances are final by A2).
    std::vector<uint8_t> failed(U.size(), 0);
    parallel_for(0, U.size(), [&](size_t idx) {
      VertexId v = U[idx];
      int32_t a = next_with(v, scan_key_[v]);
      if (a != kNoArc) {
        parent_arc_[v] = a;
        scan_key_[v] = arcs_[a].key;
      } else {
        failed[idx] = 1;
      }
    });
    std::vector<VertexId> unew;
    auto push_unew = [&](VertexId w) {
      if (in_unew_[w] != unew_epoch_) {
        in_unew_[w] = unew_epoch_;
        unew.push_back(w);
        ++counters_.queue_pushes;
      }
    };
    for (size_t idx = 0; idx < U.size(); ++idx) {
      if (!failed[idx]) continue;
      VertexId v = U[idx];
      // Lines 8-11: reset pointer, requeue v and its current tree children.
      scan_key_[v] = kHeadKey;
      push_unew(v);
      for_each_child(v, [&](VertexId c, uint32_t) {
        assert(dist_[c] == i + 1);
        note_parent_change(c);
        parent_arc_[c] = kNoArc;
        // NB: children keep their Scan pointer (paper line 11 adds them to
        // U without a reset); their skipped prefix only contains arcs whose
        // sources have distance >= Dist(c), so no candidate is missed.
        push_unew(c);
      });
    }
    // Line 12: pending vertices at this distance join. Their distance is
    // about to increase (line 14), so — exactly as in the scan-failure path
    // — their current tree children become stale and must be requeued
    // ("all descendants of v ... may potentially have an incorrect value").
    for (VertexId v : pending_by_dist[i]) {
      push_unew(v);
      --pending_left;
      for_each_child(v, [&](VertexId c, uint32_t) {
        assert(dist_[c] == i + 1);
        note_parent_change(c);
        parent_arc_[c] = kNoArc;
        push_unew(c);
      });
    }
    pending_by_dist[i].clear();
    // Lines 13-15: advance distances.
    if (!unew.empty()) ++counters_.phases, ++report.phases;
    for (VertexId v : unew) {
      if (dist_[v] != i + 1) {
        if (dist_bumped_epoch_[v] != batch_epoch_) {
          dist_bumped_epoch_[v] = batch_epoch_;
          report.dist_changed.push_back(v);
        }
      }
      dist_[v] = i + 1;
      if (dist_[v] > L_) {
        // Out of the depth-L tree entirely.
        note_parent_change(v);
        parent_arc_[v] = kNoArc;
        scan_key_[v] = kHeadKey;
      }
    }
    if (i == L_) break;
    U = std::move(unew);
    // Drop vertices that fell out of the tree.
    U.erase(std::remove_if(U.begin(), U.end(),
                           [&](VertexId v) { return dist_[v] > L_; }),
            U.end());
  }

  // Compile the parent-change log from the vertices touched this batch.
  for (VertexId v : changed_list_) {
    if (old_parent_[v] != parent_arc_[v])
      report.parent_changed.push_back({v, old_parent_[v]});
  }
  changed_list_.clear();
  return report;
}

bool ESTree::update_arc_priority(uint32_t a, uint32_t rank) {
  Arc& arc = arcs_[a];
  assert(arc.valid);
  const uint64_t new_key = key_of(rank, a);
  if (arc.key == new_key) return false;
  // NB: while a destination's distance is stable, valid parent candidates
  // only move toward smaller keys (paper §3.3); keys may move upward past
  // the scan pointer only for destinations whose distance changed in the
  // current batch — those are rescanned from the head by the cluster layer.
  // The entry moves from slot i to slot j; only the entries in between
  // shift by one, so the work is the distance moved.
  bool was_parent = parent_arc_[arc.dst] == int32_t(a);
  uint64_t* keys = in_key_.data() + in_off_[arc.dst];
  uint32_t i = slot_at_or_below(arc.dst, arc.key);
  uint32_t j = slot_at_or_below(arc.dst, new_key);
  assert(keys[i] == arc.key);
  if (j > i) {
    // Downward: slot i is vacated, so the new slot is one before j.
    --j;
    std::copy(keys + i + 1, keys + j + 1, keys + i);
  } else {
    std::copy_backward(keys + j, keys + i, keys + i + 1);
  }
  keys[j] = new_key;
  arc.key = new_key;
  ++counters_.list_ops;
  return was_parent;
}

bool ESTree::rescan(VertexId v) {
  if (v == source_ || dist_[v] == 0 || dist_[v] > L_) return false;
  int32_t a = next_with(v, scan_key_[v]);
  assert(a != kNoArc &&
         "rescan must find a parent: distances did not change");
  if (a == parent_arc_[v] && arcs_[a].key == scan_key_[v]) return false;
  bool changed = (a != parent_arc_[v]);
  if (changed) parent_arc_[v] = a;
  scan_key_[v] = arcs_[a].key;
  return changed;
}

bool ESTree::rescan_from_head(VertexId v) {
  if (v == source_ || dist_[v] == 0 || dist_[v] > L_) return false;
  int32_t a = next_with(v, kHeadKey);
  assert(a != kNoArc && "rescan_from_head must find a parent");
  bool changed = (a != parent_arc_[v]);
  if (changed) parent_arc_[v] = a;
  scan_key_[v] = arcs_[a].key;
  return changed;
}

bool ESTree::check_invariants() const {
  size_t n = dist_.size();
  // In-lists: each slice is strictly descending, its keys are the arcs'
  // current keys, and it holds exactly v's valid in-arcs (all entries are
  // valid arcs into v and their number equals v's valid in-degree).
  std::vector<uint32_t> valid_in(n, 0);
  for (const Arc& arc : arcs_)
    if (arc.valid) ++valid_in[arc.dst];
  for (VertexId v = 0; v < n; ++v) {
    uint32_t off = in_off_[v], len = in_len_[v];
    if (len != valid_in[v] || off + len > in_off_[v + 1]) return false;
    for (uint32_t j = off; j < off + len; ++j) {
      const Arc& arc = arcs_[uint32_t(in_key_[j])];
      if (!arc.valid || arc.dst != v || arc.key != in_key_[j]) return false;
      if (j > off && in_key_[j - 1] <= in_key_[j]) return false;
    }
  }
  // Recompute distances with a bounded BFS over valid arcs.
  std::vector<uint32_t> ref(n, L_ + 1);
  ref[source_] = 0;
  std::vector<VertexId> frontier = {source_};
  for (uint32_t level = 0; level < L_ && !frontier.empty(); ++level) {
    std::vector<VertexId> next;
    for (VertexId u : frontier)
      for (uint32_t j = out_offsets_[u]; j < out_offsets_[u + 1]; ++j) {
        uint32_t a = out_arcs_[j];
        if (arcs_[a].valid && ref[arcs_[a].dst] == L_ + 1) {
          ref[arcs_[a].dst] = level + 1;
          next.push_back(arcs_[a].dst);
        }
      }
    frontier = std::move(next);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (dist_[v] != ref[v]) return false;
    if (v == source_ || dist_[v] > L_) {
      if (parent_arc_[v] != kNoArc) return false;
      continue;
    }
    int32_t pa = parent_arc_[v];
    if (pa == kNoArc) return false;
    const Arc& arc = arcs_[pa];
    if (!arc.valid || arc.dst != v) return false;
    if (dist_[arc.src] + 1 != dist_[v]) return false;
    if (arc.key != scan_key_[v]) return false;
    // A1: no valid parent candidate with a key above the scan pointer.
    for (uint32_t j = in_off_[v]; j < in_off_[v] + in_len_[v]; ++j) {
      if (in_key_[j] <= scan_key_[v]) break;
      if (dist_[arcs_[uint32_t(in_key_[j])].src] + 1 == dist_[v]) return false;
    }
  }
  return true;
}

}  // namespace parspan
