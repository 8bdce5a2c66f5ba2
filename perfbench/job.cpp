#include <utility>

#include "bench.hpp"
#include "chaos/invariants.hpp"

namespace perfbench {

void SimCounters::add(const ks::testbed::ExperimentResult& r) {
  ++experiments;
  messages += r.scenario.num_messages;
  events += r.events;
  tcp_segments_sent += r.tcp_segments_sent;
  tcp_retransmissions += r.tcp_retransmissions;
  tcp_rto_events += r.tcp_rto_events;
  link_packets_lost += r.link_packets_lost;
  link_queue_drops += r.link_packets_dropped_queue;
  requests_retried += r.requests_retried;
  consumer_records += r.consumer_records;
  group_records_fetched += r.group_records_fetched;
  group_rebalances += r.group_rebalances;
  leader_elections += r.leader_elections;
  isr_shrinks += r.isr_shrinks;
  log_flushes += r.log_flushes;
  records_recovered += r.records_recovered;
  records_discarded += r.records_discarded;
  health_ticks += r.health_ticks;
}

SimCounters& SimCounters::operator+=(const SimCounters& o) {
  experiments += o.experiments;
  messages += o.messages;
  events += o.events;
  tcp_segments_sent += o.tcp_segments_sent;
  tcp_retransmissions += o.tcp_retransmissions;
  tcp_rto_events += o.tcp_rto_events;
  link_packets_lost += o.link_packets_lost;
  link_queue_drops += o.link_queue_drops;
  requests_retried += o.requests_retried;
  consumer_records += o.consumer_records;
  group_records_fetched += o.group_records_fetched;
  group_rebalances += o.group_rebalances;
  leader_elections += o.leader_elections;
  isr_shrinks += o.isr_shrinks;
  log_flushes += o.log_flushes;
  records_recovered += o.records_recovered;
  records_discarded += o.records_discarded;
  health_ticks += o.health_ticks;
  return *this;
}

bool Digests::matches(const std::string& label, std::uint64_t digest) {
  const auto [it, inserted] = seen_.emplace(label, digest);
  if (!inserted && it->second != digest) return false;
  if (references_.empty()) return true;
  const auto ref = references_.find(label);
  return ref != references_.end() && ref->second == digest;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Job::Job(Digests& digests, SpanLog* spans)
    : digests_(digests), spans_(spans), begin_ns_(clock_ns()) {
  record_.traced = spans_ != nullptr;
  if (spans_ != nullptr) job_span_ = spans_->open("job", 0, 0);
}

void Job::note_op(const char* kind, std::string label, std::uint64_t messages,
                  std::int64_t t0, std::int64_t t1,
                  const ks::obs::Profiler::Snapshot& prof) {
  OpRecord op;
  op.kind = kind;
  op.label = std::move(label);
  op.messages = messages;
  op.wall_s = static_cast<double>(t1 - t0) / 1e9;
  op.prof = prof;
  record_.ops.push_back(std::move(op));
  if (spans_ != nullptr) {
    spans_->add(kind, job_span_, record_.ops.size(), t0, t1);
  }
}

ks::testbed::ExperimentResult Job::experiment(
    const ks::chaos::ChaosScenario& cs, std::string label, int scale) {
  auto result = call("testbed.run_experiment", std::move(label),
                     cs.scenario.num_messages,
                     [&] { return ks::testbed::run_experiment(cs.scenario); });
  record_.ops.back().scale = scale;
  record_.sim.add(result);

  const auto c0 = clock_ns();
  const auto violations = ks::chaos::check_invariants(cs, result);
  const auto c1 = clock_ns();
  invariant_ns_ += c1 - c0;
  check_ns_ += c1 - c0;
  if (spans_ != nullptr) {
    spans_->add("chaos.check_invariants", job_span_, record_.ops.size(), c0,
                c1);
  }
  std::string problem;
  if (!violations.empty()) {
    problem = violations.front().invariant + ": " + violations.front().detail;
  }
  check_last([&] { return result.report.canonical_json(); }, problem);
  return result;
}

void Job::check_last(const std::function<std::string()>& output,
                     const std::string& problem) {
  const auto c0 = clock_ns();
  const bool same = digests_.matches(record_.ops.back().label,
                                     fnv1a(output()));
  const auto c1 = clock_ns();
  check_ns_ += c1 - c0;
  if (spans_ != nullptr) {
    spans_->add("digest", job_span_, record_.ops.size(), c0, c1);
  }

  ++record_.attempted;
  if (!same || !problem.empty()) {
    ++record_.failed;
    if (!same) ++record_.mismatched;
    record_.failures.emplace(record_.ops.back().label,
                             same ? problem : "output digest mismatch");
  }
}

void Job::finish() {
  const auto end = clock_ns();
  record_.job_s = static_cast<double>(end - begin_ns_ - check_ns_) / 1e9;
  record_.check_s = static_cast<double>(check_ns_) / 1e9;
  record_.invariant_s = static_cast<double>(invariant_ns_) / 1e9;
  if (spans_ != nullptr) spans_->close(job_span_);
}

}  // namespace perfbench
