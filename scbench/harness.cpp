#include "harness.h"

#include <map>

namespace scbench {

std::vector<double> Tracer::durations(std::string_view name,
                                      std::string_view parent) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (name != s.name) continue;
      if (!parent.empty() &&
          (s.parent == Span::kNoParent || parent != b->spans[s.parent].name)) {
        continue;
      }
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string_view, Summary> by_name;
  for (const auto& b : buffers_) {
    // Children never overlap each other (one thread, properly nested), so
    // the part of a span its children cover is the sum of their lengths.
    std::vector<double> covered(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent != Span::kNoParent) {
        covered[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      Summary& sum = by_name[s.name];
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      ++sum.count;
      sum.total_ns += d;
      sum.self_ns += d - covered[i];
    }
  }
  std::vector<Summary> out;
  for (auto& [name, sum] : by_name) {
    sum.name = std::string(name);
    out.push_back(std::move(sum));
  }
  return out;
}

std::uint64_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t origin = INT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [");
  const char* sep = "\n";
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const long long parent =
          s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent);
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                   sep, json_escape(s.name).c_str(), t,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   parent);
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace scbench
