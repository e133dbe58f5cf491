// SmallComponentForest: a spanning forest of a subgraph that its owner
// stores, rebuilt per batch within the components the batch touched.
//
// This is the repo's stand-in for the parallel batch-dynamic connectivity
// of [AABD19], which Theorem 1.4 uses to maintain H2 — the spanning forest
// of the subgraph induced by ⊥-vertices. Lemma 5.1 guarantees those
// components have at most 10·x·log x vertices, so a structure that rebuilds
// the spanning forest of *affected components only* (one BFS over the
// touched components per batch) meets the theorem's work regime, whose
// bounds carry τ(x) = (10 x log x)^{x log x} factors anyway (DESIGN.md §1).
//
// The forest holds no adjacency and no edge set. It reads the owner's
// subgraph through a neighbor callback, `nbrs(v, fn)` calling fn(w) for
// each neighbor w of v in the subgraph's current state, and it keeps only
// each vertex's component id, each component's members and each
// component's tree edges. The stored trees let a rebuild retire the old
// tree edges of a component whose subgraph edges are already gone.
//
// The structure is correct for arbitrary graphs; only its update cost
// degrades (to O(affected component size)) when components grow large.
#pragma once

#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/cluster_spanner.hpp"  // DiffAccumulator
#include "util/types.hpp"

namespace parspan {

class SmallComponentForest {
 public:
  explicit SmallComponentForest(size_t n) : comp_(n, kNoComp) {}

  size_t forest_size() const {
    size_t s = 0;
    for (const auto& t : trees_) s += t.size();
    return s;
  }
  std::vector<Edge> forest_edges() const {
    std::vector<Edge> out;
    for (const auto& t : trees_)
      for (EdgeKey ek : t) out.push_back(edge_from_key(ek));
    return out;
  }

  /// True iff u and v are in the same component (a vertex with no subgraph
  /// edge is in none).
  bool connected(VertexId u, VertexId v) const {
    return comp_[u] == comp_[v] && comp_[u] != kNoComp;
  }

  /// Rebuilds the forest within the components of `seeds` — the endpoints
  /// of every subgraph edge that joined or left since the last rebuild —
  /// against the subgraph's current state. Retired tree edges are removed
  /// from `churn` and new ones added, so a tree edge that survives the
  /// rebuild nets to zero.
  template <typename Nbrs>
  void rebuild(const std::vector<VertexId>& seeds, const Nbrs& nbrs,
               DiffAccumulator& churn) {
    // Release the seeds' components: their members are the affected set.
    std::vector<VertexId> affected;
    for (VertexId s : seeds) {
      const uint32_t c = comp_[s];
      if (c == kNoComp) {
        affected.push_back(s);
        continue;
      }
      for (VertexId v : members_[c]) comp_[v] = kNoComp;
      affected.insert(affected.end(), members_[c].begin(), members_[c].end());
      for (EdgeKey ek : trees_[c]) churn.remove(ek);
      members_[c].clear();
      trees_[c].clear();
      free_comps_.push_back(c);
    }
    // BFS each affected vertex's new component; the member list is the
    // queue.
    for (VertexId s : affected) {
      if (comp_[s] != kNoComp) continue;
      const uint32_t c = take_comp();
      std::vector<VertexId>& mem = members_[c];
      comp_[s] = c;
      mem.push_back(s);
      for (size_t i = 0; i < mem.size(); ++i) {
        const VertexId v = mem[i];
        nbrs(v, [&](VertexId w) {
          if (comp_[w] != kNoComp) {
            assert(comp_[w] == c && "an unseeded component gained an edge");
            return;
          }
          comp_[w] = c;
          mem.push_back(w);
          trees_[c].push_back(edge_key(v, w));
          churn.add(edge_key(v, w));
        });
      }
      if (mem.size() == 1) {  // no subgraph edge: no component
        comp_[s] = kNoComp;
        mem.clear();
        free_comps_.push_back(c);
      }
    }
  }

  /// The components are the subgraph's connected components, and each
  /// component's tree is a spanning tree of subgraph edges.
  template <typename Nbrs>
  bool check_invariants(const Nbrs& nbrs) const {
    const size_t n = comp_.size();
    size_t in_comps = 0;
    for (VertexId v = 0; v < n; ++v) {
      size_t deg = 0;
      bool same = true;
      nbrs(v, [&](VertexId w) {
        ++deg;
        same &= comp_[w] == comp_[v];
      });
      if (!same || (deg == 0) != (comp_[v] == kNoComp)) return false;
      in_comps += comp_[v] != kNoComp;
    }
    // |members| - 1 acyclic tree edges inside a component span it.
    std::vector<VertexId> uf(n);
    std::iota(uf.begin(), uf.end(), VertexId(0));
    auto find = [&](VertexId v) {
      while (uf[v] != v) v = uf[v] = uf[uf[v]];
      return v;
    };
    size_t members = 0;
    for (uint32_t c = 0; c < members_.size(); ++c) {
      const std::vector<VertexId>& mem = members_[c];
      members += mem.size();
      for (VertexId v : mem)
        if (comp_[v] != c) return false;
      if (trees_[c].size() + (mem.empty() ? 0 : 1) != mem.size())
        return false;
      for (EdgeKey ek : trees_[c]) {
        const Edge e = edge_from_key(ek);
        bool live = false;
        nbrs(e.u, [&](VertexId w) { live |= w == e.v; });
        const VertexId ru = find(e.u), rv = find(e.v);
        if (!live || comp_[e.u] != c || ru == rv) return false;
        uf[ru] = rv;
      }
    }
    return members == in_comps;
  }

 private:
  static constexpr uint32_t kNoComp = uint32_t(-1);

  uint32_t take_comp() {
    if (free_comps_.empty()) {
      members_.emplace_back();
      trees_.emplace_back();
      return uint32_t(members_.size() - 1);
    }
    const uint32_t c = free_comps_.back();
    free_comps_.pop_back();
    return c;
  }

  std::vector<uint32_t> comp_;                  // vertex -> component id
  std::vector<std::vector<VertexId>> members_;  // component -> vertices
  std::vector<std::vector<EdgeKey>> trees_;     // component -> tree edges
  std::vector<uint32_t> free_comps_;
};

}  // namespace parspan
