// Core scalar types and edge-key helpers shared across the library.
//
// Vertices are dense integer ids in [0, n). Undirected edges are canonically
// encoded as a single 64-bit key with the smaller endpoint in the high word,
// so that an edge can be used directly as a hash-table key.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

namespace parspan {

/// Dense vertex identifier. Graphs index vertices as [0, n).
using VertexId = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

/// Canonical 64-bit key for an undirected edge {u, v} (order-insensitive).
using EdgeKey = uint64_t;

/// Sentinel for "no edge".
inline constexpr EdgeKey kNoEdge = static_cast<EdgeKey>(-1);

/// Builds the canonical key for the undirected edge {u, v}.
inline constexpr EdgeKey edge_key(VertexId u, VertexId v) {
  VertexId lo = u < v ? u : v;
  VertexId hi = u < v ? v : u;
  return (static_cast<uint64_t>(lo) << 32) | static_cast<uint64_t>(hi);
}

/// Recovers the (smaller, larger) endpoints of a canonical edge key.
inline constexpr std::pair<VertexId, VertexId> edge_endpoints(EdgeKey k) {
  return {static_cast<VertexId>(k >> 32),
          static_cast<VertexId>(k & 0xffffffffULL)};
}

/// True iff `k` is the canonical key of an edge over n vertices: lo < hi
/// < n (no self-loop, not the sentinel). Keys read from logs, frames and
/// clients are data, not invariants — every decoder filters through this.
inline constexpr bool valid_edge_key(EdgeKey k, uint64_t n) {
  auto [lo, hi] = edge_endpoints(k);
  return lo < hi && hi < n;
}

/// An undirected edge as an explicit endpoint pair.
struct Edge {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;

  Edge() = default;
  Edge(VertexId a, VertexId b) : u(a), v(b) {}

  /// Canonical key of this edge (order-insensitive).
  EdgeKey key() const { return edge_key(u, v); }

  /// The endpoint different from `w`; `w` must be one of the endpoints.
  VertexId other(VertexId w) const { return w == u ? v : u; }

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.key() == b.key();
  }
  friend bool operator!=(const Edge& a, const Edge& b) { return !(a == b); }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.key() < b.key();
  }
};

/// Constructs an Edge from a canonical key.
inline Edge edge_from_key(EdgeKey k) {
  auto [u, v] = edge_endpoints(k);
  return Edge(u, v);
}

}  // namespace parspan

namespace std {
template <>
struct hash<parspan::Edge> {
  size_t operator()(const parspan::Edge& e) const {
    // splitmix64-style finalizer over the canonical key.
    uint64_t x = e.key();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};
}  // namespace std
