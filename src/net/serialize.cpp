#include "net/serialize.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace scn {

std::string serialize_network(const Network& net) {
  std::ostringstream os;
  os << "scnet 1\n";
  os << "width " << net.width() << "\n";
  for (const Gate& g : net.gates()) {
    os << "gate";
    for (const Wire w : net.gate_wires(g)) os << " " << w;
    os << "\n";
  }
  os << "output";
  for (const Wire w : net.output_order()) os << " " << w;
  os << "\n";
  return os.str();
}

ParseResult parse_network(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& msg) {
    ParseResult r;
    r.error = "line " + std::to_string(lineno) + ": " + msg;
    return r;
  };

  bool saw_magic = false;
  std::optional<std::size_t> width;
  std::optional<NetworkBuilder> builder;
  std::optional<std::vector<Wire>> output;

  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank

    if (word == "scnet") {
      int version = 0;
      if (!(ls >> version) || version != 1) {
        return fail("expected 'scnet 1'");
      }
      saw_magic = true;
    } else if (word == "width") {
      if (!saw_magic) return fail("missing 'scnet 1' header");
      if (width) return fail("duplicate width");
      long long w = -1;
      if (!(ls >> w) || w < 0) return fail("bad width");
      width = static_cast<std::size_t>(w);
      builder.emplace(*width);
    } else if (word == "gate") {
      if (!builder) return fail("gate before width");
      if (output) return fail("gate after output");
      std::vector<Wire> wires;
      long long w;
      while (ls >> w) {
        if (w < 0 || static_cast<std::size_t>(w) >= *width) {
          return fail("gate wire out of range");
        }
        wires.push_back(static_cast<Wire>(w));
      }
      if (!ls.eof()) return fail("bad gate wire");
      if (wires.size() < 2) return fail("gate needs >= 2 wires");
      std::vector<Wire> sorted = wires;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        return fail("gate repeats a wire");
      }
      builder->add_balancer(wires);
    } else if (word == "output") {
      if (!builder) return fail("output before width");
      if (output) return fail("duplicate output");
      std::vector<Wire> order;
      long long w;
      while (ls >> w) {
        // finish() indexes by output wire before validate() runs.
        if (w < 0 || static_cast<std::size_t>(w) >= *width) {
          return fail("output wire out of range");
        }
        order.push_back(static_cast<Wire>(w));
      }
      if (!ls.eof()) return fail("bad output wire");
      if (order.size() != *width) return fail("output order length != width");
      output = std::move(order);
    } else {
      return fail("unknown directive '" + word + "'");
    }
  }
  if (!builder) {
    ++lineno;
    return fail("missing width");
  }
  ParseResult r;
  Network net = output ? std::move(*builder).finish(std::move(*output))
                       : std::move(*builder).finish_identity();
  const std::string err = net.validate();
  if (!err.empty()) {
    r.error = "validation: " + err;
    return r;
  }
  r.network = std::move(net);
  return r;
}

}  // namespace scn
