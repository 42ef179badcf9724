#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile of an empty sample set");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

bool percentile_supported(std::size_t n, double p, std::size_t min_beyond) {
  return samples_beyond(n, p) >= min_beyond;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") {
    return 0.0;
  }
  for (auto& x : v) {
    stat >> x;
  }
  return static_cast<double>(v[7]) / 100.0;  // USER_HZ ticks
}

double host_probe() {
  std::vector<double> rates;
  volatile std::uint64_t sink = 0;
  for (int slice = 0; slice < 5; ++slice) {
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::milliseconds(20);
    std::uint64_t iters = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(slice);
    while (Clock::now() < end) {
      for (int i = 0; i < 1000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      iters += 1000;
    }
    sink = sink + x;
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    rates.push_back(static_cast<double>(iters) / ms);
  }
  (void)sink;
  return percentile(rates, 0.5);
}

void RunResult::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void RunResult::check(const std::string& name, bool ok,
                      const std::string& detail) {
  checks_.emplace_back(name, ok);
  if (!ok) {
    ++checks_failed_;
    ++failed_;
    std::cerr << "CHECK FAILED: " << name
              << (detail.empty() ? "" : ": " + detail) << '\n';
  }
  ++attempted_;
}

void RunResult::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, json_str(value));
}

void RunResult::note(const std::string& key, double value) {
  notes_.emplace_back(key, json_num(value));
}

std::string RunResult::stamp_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : notes_) {
    out += (first ? "" : ", ") + json_str(k) + ": " + v;
    first = false;
  }
  out += std::string(first ? "" : ", ") + "\"checks\": {";
  bool first_check = true;
  for (const auto& [k, ok] : checks_) {
    out += (first_check ? "" : ", ") + json_str(k) + ": " +
           (ok ? "true" : "false");
    first_check = false;
  }
  out += "}}";
  return out;
}

std::string RunResult::result_json() const {
  const bool ok = correct() && failed_ == 0;
  std::string out = "{\"correct\": ";
  out += ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_str(name) + ": {\"value\": " +
           json_num(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
    first = false;
  }
  out += "}}";
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace pb
