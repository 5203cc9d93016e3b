// Shared helpers of qpf_perfbench: argument parsing, clocks, order
// statistics, seed derivation and the one-line JSON report every
// subcommand prints for run.py.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "qec/sc17.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t elapsed_ns(Clock::time_point from,
                                              Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Seed of item `index` of stream `stream` under the workload seed.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream,
                                               std::uint64_t index) {
  return qpf::exec::task_seed(qpf::exec::task_seed(seed, stream), index);
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) {
    --index;
  }
  return values[std::min(index, values.size() - 1)];
}

/// `--key=value` options of one subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
      const std::string body = arg.substr(2);
      const std::size_t eq = body.find('=');
      values_.insert_or_assign(
          body.substr(0, eq),
          eq == std::string::npos ? std::string("1") : body.substr(eq + 1));
    }
  }

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return str(key) == "1";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// One LER point: physical error rate, watched basis, Pauli frame.
struct Point {
  double per = 0.0;
  qpf::qec::CheckType basis = qpf::qec::CheckType::kZ;
  bool frame = true;
};

/// Parse "per:basis:frame,..." e.g. "3e-4:z:1,1e-3:x:0".
[[nodiscard]] inline std::vector<Point> parse_points(const std::string& spec) {
  std::vector<Point> points;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string item = spec.substr(start, end - start);
    const std::size_t a = item.find(':');
    const std::size_t b = item.find(':', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::invalid_argument("bad point '" + item + "'");
    }
    Point point;
    point.per = std::stod(item.substr(0, a));
    const std::string basis = item.substr(a + 1, b - a - 1);
    if (basis != "z" && basis != "x") {
      throw std::invalid_argument("bad basis in '" + item + "'");
    }
    point.basis = basis == "z" ? qpf::qec::CheckType::kZ
                               : qpf::qec::CheckType::kX;
    point.frame = item.substr(b + 1) == "1";
    points.push_back(point);
    start = end + 1;
  }
  if (points.empty()) {
    throw std::invalid_argument("no points given");
  }
  return points;
}

/// Flat JSON object printed as one line on stdout.
class Report {
 public:
  void num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    fields_.emplace_back(key, buffer);
  }
  void count(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void print() const {
    std::string line = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      line += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " +
              fields_[i].second;
    }
    std::printf("%s}\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

int trace_ler(const Args& args);
int trace_exec(const Args& args);
int serve_load(const Args& args);

}  // namespace perfbench
