#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace perfbench {

/// Nearest rank of the p-th percentile in n samples, ceil(p/100 * n),
/// in integer hundredths of a percent so that 99.9% of 10000 is 9990.
static size_t nearest_rank(size_t n, double p) {
  const uint64_t hundredths = uint64_t(std::llround(p * 100.0));
  return size_t((hundredths * n + 9999) / 10000);
}

size_t samples_beyond(size_t n, double p) {
  const size_t rank = nearest_rank(n, p);
  return rank >= n ? 0 : n - rank;
}

double tail_percentile(size_t n) {
  double best = 100.0;
  bool found = false;
  for (double p : kTailLadder) {
    if (samples_beyond(n, p) >= 10) {
      best = p;
      found = true;
    }
  }
  return found ? best : 100.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = nearest_rank(v.size(), p);
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(rank - 1), v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = percentile(v, 50.0);
  s.tail_pct = tail_percentile(v.size());
  s.tail = percentile(v, s.tail_pct);
  s.beyond = samples_beyond(v.size(), s.tail_pct);
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

static std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out.append("\"").append(json_escape(metrics[i].name));
    out.append("\": {\"value\": ").append(number(metrics[i].value));
    out.append(", \"unit\": \"").append(json_escape(metrics[i].unit));
    out.append("\"}");
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
