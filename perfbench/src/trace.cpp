#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::uint32_t Tracer::begin(std::string_view name, std::uint64_t trace_id) {
  if (!enabled_) return 0;
  Span span;
  span.name = std::string(name);
  span.trace_id = trace_id;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ns = ns(Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(std::string_view name, std::uint64_t trace_id,
                    std::uint32_t parent, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.trace_id = trace_id;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(std::move(span));
}

std::string layer_of(std::string_view span_name) {
  const std::size_t dot = span_name.rfind('.');
  return std::string(dot == std::string_view::npos ? span_name
                                                   : span_name.substr(0, dot));
}

std::map<std::string, double> Tracer::self_seconds(std::uint32_t root) const {
  // Children of each span; spans are appended in begin order, so a
  // parent always precedes its children.
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  std::vector<bool> in_tree(spans_.size() + 1, false);
  if (root == 0 || root > spans_.size()) return {};
  in_tree[root] = true;
  for (const Span& s : spans_) {
    if (s.id != root && s.parent != 0 && in_tree[s.parent]) {
      in_tree[s.id] = true;
      children[s.parent].push_back(s.id);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (!in_tree[s.id]) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::uint32_t c : children[s.id]) {
      const Span& child = spans_[c - 1];
      covered.emplace_back(std::max(child.start_ns, s.start_ns),
                           std::min(child.end_ns, s.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : covered) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered_ns += b - from;
        reach = b;
      }
    }
    self[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered_ns) * 1e-9;
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"trace_id\":" << s.trace_id << ",\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":" << json_string(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
