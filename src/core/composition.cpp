#include "core/composition.hpp"

#include <cassert>

namespace parspan {

SpannerDiff SpannerComposition::apply(const std::vector<Edge>& h_ins,
                                      const std::vector<Edge>& h_del,
                                      const SpannerDiff& next,
                                      const std::vector<Edge>& rep_changed,
                                      const RepOf& rep_of) {
  auto s_add = [&](EdgeKey ek) {
    bool fresh = s_.insert(ek);
    assert(fresh && "S components must stay disjoint");
    (void)fresh;
    delta_.add(ek);
  };
  auto s_remove = [&](EdgeKey ek) {
    bool erased = s_.erase(ek);
    assert(erased);
    (void)erased;
    delta_.remove(ek);
  };
  // Removals.
  for (const Edge& e : h_del) s_remove(e.key());
  for (const Edge& p : next.removed) {
    EdgeKey* it = used_rep_.find(p.key());
    assert(it != nullptr);
    s_remove(*it);
    used_rep_.erase(p.key());
  }
  std::vector<Edge> stale;  // surviving pairs of S_next with an old rep
  for (const Edge& p : rep_changed) {
    EdgeKey* it = used_rep_.find(p.key());
    if (it == nullptr || *it == rep_of(p)) continue;
    s_remove(*it);
    stale.push_back(p);
  }
  // Additions.
  auto add_rep = [&](Edge p) {
    EdgeKey r = rep_of(p);
    used_rep_[p.key()] = r;
    s_add(r);
  };
  for (const Edge& e : h_ins) s_add(e.key());
  for (const Edge& p : next.inserted) add_rep(p);
  for (const Edge& p : stale) add_rep(p);
  return delta_.drain();
}

std::vector<Edge> SpannerComposition::edges() const {
  std::vector<Edge> out;
  out.reserve(s_.size());
  for (EdgeKey ek : s_.sorted_keys()) out.push_back(edge_from_key(ek));
  return out;
}

bool SpannerComposition::check_invariants(const std::vector<Edge>& h,
                                          const std::vector<Edge>& s_next,
                                          const RepOf& rep_of) const {
  FlatHashSet<EdgeKey> ref;
  for (const Edge& e : h)
    if (!ref.insert(e.key())) return false;
  if (used_rep_.size() != s_next.size()) return false;
  for (const Edge& p : s_next) {
    const EdgeKey* it = used_rep_.find(p.key());
    if (it == nullptr || *it != rep_of(p) || !ref.insert(*it)) return false;
  }
  if (ref.size() != s_.size()) return false;
  bool ok = true;
  ref.for_each([&](EdgeKey ek) {
    if (!s_.contains(ek)) ok = false;
  });
  return ok;
}

}  // namespace parspan
