#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanLog::open(std::string name, std::uint64_t parent,
                            std::uint64_t op) {
  const auto t = clock_ns();
  return add(std::move(name), parent, op, t, t);
}

void SpanLog::close(std::uint64_t id) {
  spans_.at(id - 1).end_ns = clock_ns();
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           std::uint64_t op, std::int64_t begin_ns,
                           std::int64_t end_ns) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = std::move(name);
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const auto& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.begin_ns, s.end_ns);
  }
  std::vector<std::int64_t> out;
  out.reserve(spans_.size());
  for (const auto& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_begin = 0, cur_end = 0;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::max(b, s.begin_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, e);
          continue;
        }
        if (open) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
        open = true;
      }
      if (open) covered += cur_end - cur_begin;
    }
    out.push_back((s.end_ns - s.begin_ns) - covered);
  }
  return out;
}

std::string SpanLog::chrome_trace_json() const {
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().begin_ns;
  ks::obs::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.key("ph");
  w.value("M");
  w.key("name");
  w.value("thread_name");
  w.key("pid");
  w.value(1);
  w.key("tid");
  w.value(1);
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value("perfbench");
  w.end_object();
  w.end_object();
  for (const auto& s : spans_) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value("perfbench");
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<double>(s.begin_ns - epoch) / 1e3);
    w.key("dur");
    w.value(static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
    w.key("pid");
    w.value(1);
    w.key("tid");
    w.value(1);
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(s.id);
    w.key("parent");
    w.value(s.parent);
    w.key("op");
    w.value(s.op);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
