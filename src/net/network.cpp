#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace scn {

NetworkBuilder::NetworkBuilder(std::size_t width, ModuleCache* module_cache)
    : wire_layer_(width, 0), module_cache_(module_cache) {}

bool builder_checks_enabled() {
#ifdef SCNET_CHECKED
  return true;
#else
  return false;
#endif
}

void NetworkBuilder::check_wires(std::span<const Wire> wires,
                                 const char* what) {
#ifdef SCNET_CHECKED
  // Epoch-marked scratch keeps duplicate detection O(|wires|) per gate with
  // no per-call allocation; the scratch array is lazily sized to width().
  if (seen_mark_.size() != width()) seen_mark_.assign(width(), 0);
  seen_epoch_ += 1;
  if (seen_epoch_ == 0) {  // epoch counter wrapped: restart marks
    std::fill(seen_mark_.begin(), seen_mark_.end(), 0u);
    seen_epoch_ = 1;
  }
  for (const Wire w : wires) {
    if (w < 0 || static_cast<std::size_t>(w) >= width()) {
      std::ostringstream err;
      err << what << ": wire " << w << " out of range for width " << width();
      throw std::invalid_argument(err.str());
    }
    auto& mark = seen_mark_[static_cast<std::size_t>(w)];
    if (mark == seen_epoch_) {
      std::ostringstream err;
      err << what << ": duplicate wire " << w;
      throw std::invalid_argument(err.str());
    }
    mark = seen_epoch_;
  }
#else
  (void)wires;
  (void)what;
#endif
}

void NetworkBuilder::add_balancer(std::span<const Wire> wires) {
  if (wires.size() <= 1) return;  // identity gate: nothing to balance
  check_wires(wires, "add_balancer");
  std::uint32_t layer = 0;
  for (const Wire w : wires) {
    assert(w >= 0 && static_cast<std::size_t>(w) < width());
    layer = std::max(layer, wire_layer_[static_cast<std::size_t>(w)]);
  }
  layer += 1;
  Gate g;
  g.first = static_cast<std::uint32_t>(gate_wires_.size());
  g.width = static_cast<std::uint32_t>(wires.size());
  g.layer = layer;
  gates_.push_back(g);
  gate_wires_.insert(gate_wires_.end(), wires.begin(), wires.end());
  for (const Wire w : wires) wire_layer_[static_cast<std::size_t>(w)] = layer;
  depth_ = std::max(depth_, layer);
}

void NetworkBuilder::add_balancer(std::initializer_list<Wire> wires) {
  add_balancer(std::span<const Wire>(wires.begin(), wires.size()));
}

std::vector<Wire> NetworkBuilder::stamp(const Network& tmpl,
                                        std::span<const Wire> wires) {
#ifdef SCNET_CHECKED
  if (wires.size() != tmpl.width()) {
    std::ostringstream err;
    err << "stamp: relocation span has " << wires.size()
        << " wires, template width is " << tmpl.width();
    throw std::invalid_argument(err.str());
  }
#endif
  assert(wires.size() == tmpl.width());
  check_wires(wires, "stamp");

  // Flat splice: the template's gates are already validated (distinct
  // canonical wires per gate) and `wires` is injective, so the relocated
  // gates need no per-gate contract check — only the ASAP layer recurrence,
  // which is identical to what sequential add_balancer calls compute.
  gates_.reserve(gates_.size() + tmpl.gate_count());
  gate_wires_.reserve(gate_wires_.size() + tmpl.wire_endpoint_count());
  for (const Gate& tg : tmpl.gates()) {
    const auto tws = tmpl.gate_wires(tg);
    Gate g;
    g.first = static_cast<std::uint32_t>(gate_wires_.size());
    g.width = tg.width;
    std::uint32_t layer = 0;
    for (const Wire tw : tws) {
      const Wire w = wires[static_cast<std::size_t>(tw)];
      gate_wires_.push_back(w);
      layer = std::max(layer, wire_layer_[static_cast<std::size_t>(w)]);
    }
    layer += 1;
    g.layer = layer;
    gates_.push_back(g);
    for (const Wire tw : tws) {
      wire_layer_[static_cast<std::size_t>(
          wires[static_cast<std::size_t>(tw)])] = layer;
    }
    depth_ = std::max(depth_, layer);
  }

  std::vector<Wire> out(tmpl.width());
  const auto order = tmpl.output_order();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = wires[static_cast<std::size_t>(order[i])];
  }
  return out;
}

Network NetworkBuilder::finish(std::vector<Wire> output_order) && {
  assert(output_order.size() == width());
  Network n;
  n.width_ = width();
  n.depth_ = depth_;
  n.gates_ = std::move(gates_);
  n.gate_wires_ = std::move(gate_wires_);
  n.output_order_ = std::move(output_order);
  n.inverse_output_order_.assign(n.width_, 0);
  for (std::size_t i = 0; i < n.width_; ++i) {
    n.inverse_output_order_[static_cast<std::size_t>(n.output_order_[i])] = i;
  }
  n.max_gate_width_ = 0;
  for (const Gate& g : n.gates_) {
    n.max_gate_width_ = std::max(n.max_gate_width_, g.width);
  }
  return n;
}

Network NetworkBuilder::finish_identity() && {
  return std::move(*this).finish(identity_order(width()));
}

std::vector<std::size_t> Network::gate_width_histogram() const {
  std::vector<std::size_t> hist(max_gate_width_ + 1, 0);
  for (const Gate& g : gates_) hist[g.width] += 1;
  return hist;
}

std::string Network::validate() const {
  std::ostringstream err;
  if (output_order_.size() != width_) {
    err << "output order size " << output_order_.size() << " != width "
        << width_;
    return err.str();
  }
  {
    std::vector<bool> seen(width_, false);
    for (const Wire w : output_order_) {
      if (w < 0 || static_cast<std::size_t>(w) >= width_) {
        err << "output order wire " << w << " out of range";
        return err.str();
      }
      if (seen[static_cast<std::size_t>(w)]) {
        err << "output order repeats wire " << w;
        return err.str();
      }
      seen[static_cast<std::size_t>(w)] = true;
    }
  }
  std::vector<std::uint32_t> wire_layer(width_, 0);
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    const Gate& g = gates_[gi];
    if (g.width < 2) {
      err << "gate " << gi << " has width " << g.width << " < 2";
      return err.str();
    }
    auto ws = gate_wires(g);
    std::vector<Wire> sorted(ws.begin(), ws.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      err << "gate " << gi << " repeats a wire";
      return err.str();
    }
    std::uint32_t expect = 0;
    for (const Wire w : ws) {
      if (w < 0 || static_cast<std::size_t>(w) >= width_) {
        err << "gate " << gi << " wire " << w << " out of range";
        return err.str();
      }
      expect = std::max(expect, wire_layer[static_cast<std::size_t>(w)]);
    }
    expect += 1;
    if (g.layer != expect) {
      err << "gate " << gi << " layer " << g.layer << " != ASAP layer "
          << expect;
      return err.str();
    }
    for (const Wire w : ws) wire_layer[static_cast<std::size_t>(w)] = g.layer;
  }
  const std::uint32_t real_depth =
      gates_.empty()
          ? 0
          : std::max_element(gates_.begin(), gates_.end(),
                             [](const Gate& a, const Gate& b) {
                               return a.layer < b.layer;
                             })
                ->layer;
  if (depth_ != real_depth) {
    err << "recorded depth " << depth_ << " != max layer " << real_depth;
    return err.str();
  }
  return {};
}

std::vector<std::vector<std::size_t>> Network::layers() const {
  std::vector<std::vector<std::size_t>> out(depth_);
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    out[gates_[gi].layer - 1].push_back(gi);
  }
  return out;
}

std::vector<Wire> identity_order(std::size_t w) {
  std::vector<Wire> out(w);
  std::iota(out.begin(), out.end(), Wire{0});
  return out;
}

}  // namespace scn
