#include "tune/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/factorization.h"

namespace scn::tune {
namespace {

// --- schema-specific tolerant JSON scanning --------------------------------
//
// The store's writer is to_json() below, so the parser only has to cover
// that shape (flat string/number values inside one object per cell), but it
// must never throw or crash on a truncated or hand-edited file: a value
// that does not scan makes the enclosing cell invalid, and an envelope
// that does not scan makes the whole file invalid (nullopt).

/// The raw value text of `"key": <value>` inside `object`, or nullopt.
std::optional<std::string_view> raw_value(std::string_view object,
                                          std::string_view key) {
  const std::string quoted = std::string("\"").append(key).append("\"");
  const std::size_t at = object.find(quoted);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t pos = at + quoted.size();
  while (pos < object.size() && (object[pos] == ':' || object[pos] == ' ' ||
                                 object[pos] == '\t' || object[pos] == '\n')) {
    ++pos;
  }
  if (pos >= object.size()) return std::nullopt;
  return object.substr(pos);
}

std::optional<std::string> string_value(std::string_view object,
                                        std::string_view key) {
  const auto raw = raw_value(object, key);
  if (!raw || raw->empty() || (*raw)[0] != '"') return std::nullopt;
  const std::size_t close = raw->find('"', 1);
  if (close == std::string_view::npos) return std::nullopt;
  return std::string(raw->substr(1, close - 1));
}

std::optional<double> number_value(std::string_view object,
                                   std::string_view key) {
  const auto raw = raw_value(object, key);
  if (!raw) return std::nullopt;
  // strtod needs NUL termination; numbers in the store are short.
  const std::string head(raw->substr(0, std::min<std::size_t>(raw->size(), 48)));
  char* end = nullptr;
  const double value = std::strtod(head.c_str(), &end);
  if (end == head.c_str()) return std::nullopt;
  return value;
}

std::optional<std::size_t> size_value(std::string_view object,
                                      std::string_view key) {
  const auto number = number_value(object, key);
  if (!number || *number < 0) return std::nullopt;
  return static_cast<std::size_t>(*number);
}

std::optional<std::vector<std::size_t>> parse_factors(
    const std::string& text) {
  std::vector<std::size_t> factors;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, 'x')) {
    const unsigned long f = std::strtoul(item.c_str(), nullptr, 10);
    if (f < 2) return std::nullopt;
    factors.push_back(f);
  }
  if (factors.empty()) return std::nullopt;
  return factors;
}

std::optional<ProfileCell> parse_cell(std::string_view object) {
  ProfileCell cell;
  const auto kind = string_value(object, "kind");
  if (!kind) return std::nullopt;
  if (*kind == "K") {
    cell.kind = NetworkKind::kK;
  } else if (*kind == "L") {
    cell.kind = NetworkKind::kL;
  } else {
    return std::nullopt;
  }
  const auto factors_text = string_value(object, "factors");
  if (!factors_text) return std::nullopt;
  const auto factors = parse_factors(*factors_text);
  if (!factors) return std::nullopt;
  cell.factors = *factors;
  std::size_t product = 1;
  for (const std::size_t f : cell.factors) product *= f;
  const auto width = size_value(object, "width");
  if (!width || *width != product) return std::nullopt;
  cell.width = *width;
  const auto passes = string_value(object, "passes");
  if (!passes) return std::nullopt;
  const auto level = parse_pass_level(*passes);
  if (!level) return std::nullopt;
  cell.pass_level = *level;
  const auto backend_name = string_value(object, "backend");
  if (!backend_name) return std::nullopt;
  const auto backend = parse_backend(*backend_name);
  if (!backend || *backend == EngineBackend::kAuto) return std::nullopt;
  cell.backend = *backend;
  const auto threads = size_value(object, "threads");
  const auto lanes = size_value(object, "lanes");
  if (!threads || !lanes || *lanes == 0) return std::nullopt;
  cell.threads = *threads;
  cell.lanes = *lanes;
  const auto vps = number_value(object, "vectors_per_sec");
  if (!vps || *vps < 0 || !std::isfinite(*vps)) return std::nullopt;
  cell.vectors_per_sec = *vps;
  cell.seconds = number_value(object, "seconds").value_or(0.0);
  return cell;
}

}  // namespace

std::string ProfileCell::label() const {
  std::ostringstream os;
  os << to_string(kind) << "(" << format_factors(factors) << ") "
     << scn::to_string(pass_level) << "/" << scn::to_string(backend) << " t"
     << threads << " B" << lanes;
  return os.str();
}

bool ProfileCell::same_point(const ProfileCell& other) const {
  return kind == other.kind && factors == other.factors &&
         width == other.width && pass_level == other.pass_level &&
         backend == other.backend && threads == other.threads &&
         lanes == other.lanes;
}

std::string MachineProfile::fingerprint_for(const MachineCaps& caps) {
  std::ostringstream os;
  os << "scnet-profile-v2;threads=" << caps.threads;
  return os.str();
}

MachineProfile::MachineProfile()
    : fingerprint_(fingerprint_for(machine_caps())) {}

MachineProfile::MachineProfile(std::string fingerprint)
    : fingerprint_(std::move(fingerprint)) {}

bool MachineProfile::matches(const MachineCaps& caps) const {
  return fingerprint_ == fingerprint_for(caps);
}

bool MachineProfile::matches_host() const { return matches(machine_caps()); }

void MachineProfile::append(const ProfileCell& cell) {
  for (ProfileCell& existing : cells_) {
    if (existing.same_point(cell)) {
      if (cell.vectors_per_sec > existing.vectors_per_sec) existing = cell;
      return;
    }
  }
  cells_.push_back(cell);
}

const ProfileCell* MachineProfile::best_cell(std::size_t width,
                                             std::size_t lanes) const {
  // Nearest lane count first (log-distance: 64 vs 256 lanes is "closer"
  // than 64 vs 4096 even though the linear gaps say otherwise), best
  // throughput among the nearest.
  const ProfileCell* best = nullptr;
  double best_distance = 0.0;
  for (const ProfileCell& cell : cells_) {
    if (cell.width != width) continue;
    const double distance = std::fabs(
        std::log2(static_cast<double>(std::max<std::size_t>(cell.lanes, 1))) -
        std::log2(static_cast<double>(std::max<std::size_t>(lanes, 1))));
    if (best == nullptr || distance < best_distance ||
        (distance == best_distance &&
         cell.vectors_per_sec > best->vectors_per_sec)) {
      best = &cell;
      best_distance = distance;
    }
  }
  return best;
}

const ProfileCell* MachineProfile::best_cell_for(
    NetworkKind kind, std::span<const std::size_t> factors,
    std::size_t lanes) const {
  const ProfileCell* best = nullptr;
  double best_distance = 0.0;
  for (const ProfileCell& cell : cells_) {
    if (cell.kind != kind ||
        !std::equal(cell.factors.begin(), cell.factors.end(), factors.begin(),
                    factors.end())) {
      continue;
    }
    const double distance = std::fabs(
        std::log2(static_cast<double>(std::max<std::size_t>(cell.lanes, 1))) -
        std::log2(static_cast<double>(std::max<std::size_t>(lanes, 1))));
    if (best == nullptr || distance < best_distance ||
        (distance == best_distance &&
         cell.vectors_per_sec > best->vectors_per_sec)) {
      best = &cell;
      best_distance = distance;
    }
  }
  return best;
}

std::vector<std::size_t> MachineProfile::widths() const {
  std::vector<std::size_t> out;
  for (const ProfileCell& cell : cells_) out.push_back(cell.width);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string MachineProfile::to_json() const {
  std::ostringstream os;
  os << "{\n  \"machine_profile\": 1,\n  \"fingerprint\": \"" << fingerprint_
     << "\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const ProfileCell& cell = cells_[i];
    char vps[64];
    std::snprintf(vps, sizeof vps, "%.3f", cell.vectors_per_sec);
    char secs[64];
    std::snprintf(secs, sizeof secs, "%.6f", cell.seconds);
    os << "    {\"kind\": \"" << scn::to_string(cell.kind)
       << "\", \"factors\": \"" << format_factors(cell.factors)
       << "\", \"width\": " << cell.width << ", \"passes\": \""
       << scn::to_string(cell.pass_level) << "\", \"backend\": \""
       << scn::to_string(cell.backend) << "\", \"threads\": " << cell.threads
       << ", \"lanes\": " << cell.lanes << ", \"vectors_per_sec\": " << vps
       << ", \"seconds\": " << secs << "}"
       << (i + 1 < cells_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::optional<MachineProfile> MachineProfile::from_json(
    std::string_view text) {
  if (!raw_value(text, "machine_profile")) return std::nullopt;
  const auto fingerprint = string_value(text, "fingerprint");
  if (!fingerprint || fingerprint->empty()) return std::nullopt;
  MachineProfile profile(*fingerprint);

  const auto cells_raw = raw_value(text, "cells");
  if (!cells_raw || cells_raw->empty() || (*cells_raw)[0] != '[') {
    return std::nullopt;
  }
  // Walk the array object by object. Cell objects are flat (no nested
  // braces), so each cell spans one '{'..'}' pair.
  std::string_view rest = *cells_raw;
  std::size_t pos = 1;  // past '['
  while (true) {
    const std::size_t open = rest.find('{', pos);
    const std::size_t close_array = rest.find(']', pos);
    if (open == std::string_view::npos ||
        (close_array != std::string_view::npos && close_array < open)) {
      break;
    }
    const std::size_t close = rest.find('}', open);
    if (close == std::string_view::npos) return std::nullopt;  // truncated
    if (const auto cell = parse_cell(rest.substr(open, close - open + 1))) {
      profile.append(*cell);
    }
    pos = close + 1;
  }
  return profile;
}

bool MachineProfile::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out.flush());
}

std::optional<MachineProfile> MachineProfile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

}  // namespace scn::tune
