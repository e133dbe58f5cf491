// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer (name, start, end, the
// span that caused it, and the batch it belongs to) and written out once,
// when the run ends. A null recorder records nothing, so the untraced
// passes pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the causing span, -1 for a root
  int64_t batch = -1;   // batch / round / request id, -1 when none
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  /// Opens a span and returns its id (pass it as the parent of children).
  int32_t begin(const char* name, int64_t batch, int32_t parent = -1) {
    spans_.push_back(Span{name, now_ns(), 0, parent, batch});
    return int32_t(spans_.size() - 1);
  }
  void end(int32_t id) { spans_[size_t(id)].end_ns = now_ns(); }

  /// A span whose times were taken elsewhere (e.g. a wire request timed
  /// from send to response).
  int32_t add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t batch, int32_t parent = -1) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, batch});
    return int32_t(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (in `unit_ns` units) of every closed span named `name`.
  std::vector<double> durations(const std::string& name,
                                double unit_ns = 1e3) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.end_ns >= s.start_ns && name == s.name)
        out.push_back(double(s.end_ns - s.start_ns) / unit_ns);
    return out;
  }

  /// Sum of the durations, per batch id, of the spans named in `names`.
  std::map<int64_t, double> per_batch_sum(const std::vector<std::string>& names,
                                          double unit_ns) const {
    std::map<int64_t, double> out;
    for (const Span& s : spans_)
      for (const std::string& n : names)
        if (n == s.name) out[s.batch] += double(s.end_ns - s.start_ns) / unit_ns;
    return out;
  }

  /// Writes one JSON object per span per line. False on I/O failure.
  bool dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span on an optional tracer.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, int64_t batch, int32_t parent = -1)
      : t_(t), id_(t ? t->begin(name, batch, parent) : -1) {}
  ~Scoped() {
    if (t_) t_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* t_;
  int32_t id_;
};

}  // namespace perfbench
