// In-memory span log for the traced benchmark run.
//
// The benchmark records one span around every library call it makes (and
// around each output check), with a parent link and the id of the op the
// span belongs to. Spans stay in memory while the run measures and are
// written out once at the end, as Chrome trace-event JSON (the format
// RunReport::perfetto_json() uses, which Perfetto and chrome://tracing
// load).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock time in nanoseconds; every span and op timing uses it.
std::int64_t clock_ns();

struct Span {
  std::uint64_t id = 0;      ///< 1-based position in the log.
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t op = 0;      ///< Op the span belongs to (0 = none).
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Opens a span starting now; close() sets its end.
  std::uint64_t open(std::string name, std::uint64_t parent,
                     std::uint64_t op);
  void close(std::uint64_t id);
  /// Records a span whose interval the caller already measured.
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t op,
                    std::int64_t begin_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span, in spans() order: its duration minus the
  /// part of its interval that its child spans cover.
  std::vector<std::int64_t> self_ns() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond ts/dur
  /// relative to the first span).
  std::string chrome_trace_json() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
