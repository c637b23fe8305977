// The one record format behind every committed BENCH_*.json baseline, its
// emitter, and the only wall-clock timer under bench/.
//
// A bench file is {"bench": <kind>, "quick": <bool>, "records": [...]}
// and each record is
//
//   {"name": <unique id>, "required": <bool>,
//    "exact":  {...}   model outputs, pure functions of (config, seed): a
//                      fresh run must reproduce the baseline value exactly
//    "ratio":  {...}   host throughput: fresh >= --min-ratio x baseline
//    "info":   {...}   context for the reader; never compared
//    "checks": {...}}  machine-independent invariants, computed next to the
//                      data; every one must be true in a fresh run
//
// "required" marks a record every fresh run must contain; other baseline
// records may be missing from a --quick subset. tools/bench_compare.py is
// the single comparator for this format. Host time stays here, outside
// src/, so no wall-clock reader enters the simulator library.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace sv::bench {

/// Wall-clock seconds `body()` takes. Host time IS the measurement here
/// (simulator throughput), never simulated state.
template <typename Body>
double wall_seconds(Body&& body) {
  using Clock = std::chrono::steady_clock;  // svlint:allow(SV004)
  const auto t0 = Clock::now();
  std::forward<Body>(body)();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Renders one JSON scalar: bools, integers (exact, any width), floating
/// point with `decimals` fixed digits, and strings.
template <typename T>
std::string to_json(const T& v, int decimals = 0) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals,
                  static_cast<double>(v));
    return buf;
  } else {
    // Keys and names are identifiers chosen by the benches: no escaping.
    return "\"" + std::string(std::string_view(v)) + "\"";
  }
}

class Record {
 public:
  explicit Record(std::string name, bool required = false)
      : name_(std::move(name)), required_(required) {}

  template <typename T>
  Record& exact(std::string_view key, const T& v) {
    return put(&exact_, key, to_json(v));
  }
  template <typename T>
  Record& ratio(std::string_view key, const T& v) {
    return put(&ratio_, key, to_json(v));
  }
  template <typename T>
  Record& info(std::string_view key, const T& v, int decimals = 0) {
    return put(&info_, key, to_json(v, decimals));
  }
  Record& check(std::string_view key, bool ok) {
    return put(&checks_, key, to_json(ok));
  }

  /// Appends this record as one element of the "records" array; groups
  /// wrap at ~100 columns so baselines stay diffable.
  void write(std::ostream& os, bool last) const {
    os << "    {\"name\": " << to_json(name_)
       << ", \"required\": " << to_json(required_) << ",\n";
    write_group(os, "exact", exact_, ",");
    write_group(os, "ratio", ratio_, ",");
    write_group(os, "info", info_, ",");
    write_group(os, "checks", checks_, last ? "}" : "},");
  }

 private:
  /// (quoted key, rendered value) pairs, in insertion order.
  using Fields = std::vector<std::pair<std::string, std::string>>;

  Record& put(Fields* group, std::string_view key, std::string json) {
    group->emplace_back(to_json(key), std::move(json));
    return *this;
  }

  static void write_group(std::ostream& os, const char* label,
                          const Fields& fields, const char* tail) {
    constexpr std::size_t kWrap = 100;
    std::string line = std::string("     \"") + label + "\": {";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::string piece = fields[i].first + ": " + fields[i].second;
      if (i + 1 < fields.size()) piece += ",";
      if (i > 0 && line.size() + 1 + piece.size() > kWrap) {
        os << line << "\n";
        line = "       " + piece;
      } else {
        line += (i > 0 ? " " : "") + piece;
      }
    }
    os << line << "}" << tail << "\n";
  }

  std::string name_;
  bool required_;
  Fields exact_;
  Fields ratio_;
  Fields info_;
  Fields checks_;
};

/// Writes `records` as bench file `path`; throws std::runtime_error when
/// the destination cannot be written.
inline void write_json(const std::string& path, std::string_view bench,
                       bool quick, const std::vector<Record>& records) {
  std::ofstream out(path);
  out << "{\n  \"bench\": " << to_json(bench)
      << ",\n  \"quick\": " << to_json(quick) << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].write(out, i + 1 == records.size());
  }
  out << "  ]\n}\n";
  if (!out) throw std::runtime_error("cannot write bench JSON '" + path + "'");
  std::cout << "wrote " << path << "\n";
}

}  // namespace sv::bench
