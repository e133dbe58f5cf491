// Reporting helpers of the end-to-end benchmark: sample summaries with the
// tail-percentile rule, the failure ledger behind `attempted` / `failed`,
// and the metric list printed as the run's final JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The percentile ladder a tail is chosen from, ascending.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// Samples strictly above the p-th percentile's rank in n samples (the
/// nearest-rank definition: rank = ceil(p/100 * n)).
size_t samples_beyond(size_t n, double p);

/// The highest ladder percentile with at least 10 samples beyond it, or
/// 100 (the maximum) when even the median has fewer.
double tail_percentile(size_t n);

/// Nearest-rank percentile of `v` (copied, not reordered); 0 for empty.
double percentile(std::vector<double> v, double p);

double median(std::vector<double> v);

/// Median and tail of one sample set, with what the tail rests on.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 100;  // which percentile `tail` is
  size_t beyond = 0;      // samples above it
};
Summary summarize(const std::vector<double>& v);

/// Operations attempted and failed over a run. A refusal (kRetryAfter), a
/// kError, a protocol error and a submit_for timeout all count as failed.
class Ledger {
 public:
  void ok(uint64_t n = 1) { attempted_ += n; }
  void fail(uint64_t n = 1) {
    attempted_ += n;
    failed_ += n;
  }
  /// Failures found after the fact (e.g. the server's protocol-error
  /// count) for operations already counted as attempted.
  void reclassify_failed(uint64_t n) { failed_ += n; }
  void add(const Ledger& o) {
    attempted_ += o.attempted_;
    failed_ += o.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double failed_ratio() const {
    return attempted_ == 0 ? 0.0 : double(failed_) / double(attempted_);
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` — the
/// one line a run ends with. Values print with all significant digits.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics);

/// JSON string escaping for the context line.
std::string json_escape(const std::string& s);

}  // namespace perfbench
