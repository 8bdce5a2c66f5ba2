// The benchmark's measurement core: a Job times every library call a
// workload makes, accounts the simulated work those calls report, and
// checks every output outside the timed region.
//
// Everything runs in one thread, one call at a time (closed loop: the next
// call starts when the previous one returns).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/generator.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "spans.hpp"
#include "testbed/experiment.hpp"

namespace perfbench {

/// The seed at which outputs are compared with the stored references
/// (the master seed of the chaos probe that found the disk_faults defect
/// listed in README.md).
inline constexpr std::uint64_t kDefaultSeed = 0xBE7C4;

/// Totals of the ExperimentResult counters over a job's experiments.
struct SimCounters {
  std::uint64_t experiments = 0;
  std::uint64_t messages = 0;  ///< Scenario num_messages, summed.
  std::uint64_t events = 0;
  std::uint64_t tcp_segments_sent = 0;
  std::uint64_t tcp_retransmissions = 0;
  std::uint64_t tcp_rto_events = 0;
  std::uint64_t link_packets_lost = 0;
  std::uint64_t link_queue_drops = 0;
  std::uint64_t requests_retried = 0;
  std::uint64_t consumer_records = 0;
  std::uint64_t group_records_fetched = 0;
  std::uint64_t group_rebalances = 0;
  std::uint64_t leader_elections = 0;
  std::uint64_t isr_shrinks = 0;
  std::uint64_t log_flushes = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t records_discarded = 0;
  std::uint64_t health_ticks = 0;

  void add(const ks::testbed::ExperimentResult& r);
  SimCounters& operator+=(const SimCounters& o);
};

/// One timed library call.
struct OpRecord {
  std::string kind;  ///< The call, e.g. "testbed.run_experiment".
  std::string label;  ///< Unique within the job; keys the output digest.
  /// Simulated source messages, for calls that run a simulation
  /// (run_experiment and run_dynamic_experiment); 0 otherwise.
  std::uint64_t messages = 0;
  /// 1 or 2 for the N and 2N runs of a scaling pair, 0 otherwise.
  int scale = 0;
  double wall_s = 0.0;
  ks::obs::Profiler::Snapshot prof;  ///< Profiler and allocation deltas.
};

struct JobRecord {
  bool traced = false;
  double job_s = 0.0;        ///< Wall time minus the output checks.
  double check_s = 0.0;      ///< Output checks (invariants + digests).
  double invariant_s = 0.0;  ///< chaos::check_invariants alone.
  std::vector<OpRecord> ops;
  SimCounters sim;
  std::uint64_t attempted = 0;   ///< Checked outputs.
  std::uint64_t failed = 0;      ///< Invariant violation or digest mismatch.
  std::uint64_t mismatched = 0;  ///< Digest mismatches alone.
  /// Failed outputs: label -> reason.
  std::map<std::string, std::string> failures;

  // learn_and_tune only.
  std::uint64_t train_sample_epochs = 0;  ///< Training-split rows x epochs.
  std::uint64_t predict_calls = 0;
  std::uint64_t online_evaluations = 0;
  std::uint64_t reconfigurations = 0;
};

/// Output digests: the stored references at the default seed, and the
/// first digest seen per label, so that every repeat of the job in a run
/// must reproduce its first output byte for byte.
class Digests {
 public:
  /// `references` empty => only the repeat check applies.
  explicit Digests(std::map<std::string, std::uint64_t> references)
      : references_(std::move(references)) {}

  bool matches(const std::string& label, std::uint64_t digest);
  const std::map<std::string, std::uint64_t>& seen() const noexcept {
    return seen_;
  }

 private:
  std::map<std::string, std::uint64_t> references_;
  std::map<std::string, std::uint64_t> seen_;
};

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes);

class Job {
 public:
  /// `spans` null => untraced: no spans are recorded and the profiler
  /// stays as it is.
  Job(Digests& digests, SpanLog* spans);

  /// Times `fn()` as one op and returns its result.
  template <class F>
  auto call(const char* kind, std::string label, std::uint64_t messages,
            F&& fn) {
    const auto before = ks::obs::profiler().snapshot();
    const auto t0 = clock_ns();
    auto out = fn();
    const auto t1 = clock_ns();
    note_op(kind, std::move(label), messages, t0, t1,
            ks::obs::profiler().snapshot().since(before));
    return out;
  }

  /// run_experiment on `cs.scenario`, then chaos::check_invariants with
  /// the scenario's expectation flags and the canonical_json() digest.
  ks::testbed::ExperimentResult experiment(const ks::chaos::ChaosScenario& cs,
                                           std::string label, int scale = 0);

  /// Checks the last op's output, untimed: the digest of `output()`
  /// against the references and earlier repeats, plus `problem` (empty =
  /// none) from the caller's own checks.
  void check_last(const std::function<std::string()>& output,
                  const std::string& problem = {});

  /// Closes the job; record() is final afterwards.
  void finish();

  JobRecord& record() noexcept { return record_; }

 private:
  void note_op(const char* kind, std::string label, std::uint64_t messages,
               std::int64_t t0, std::int64_t t1,
               const ks::obs::Profiler::Snapshot& prof);

  Digests& digests_;
  SpanLog* spans_;
  std::uint64_t job_span_ = 0;
  std::int64_t begin_ns_ = 0;
  std::int64_t check_ns_ = 0;
  std::int64_t invariant_ns_ = 0;
  JobRecord record_;
};

/// One benchmark workload: inputs built from a seed, and a fixed job.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input of the job from `seed`.
  virtual void setup(std::uint64_t seed) = 0;
  virtual void run(Job& job) = 0;
  /// The inputs' parameters, as the members of a JSON object.
  virtual void disclose(ks::obs::JsonWriter& w) const = 0;

  /// Seconds spent in chaos::generate_scenario by the last setup().
  double generate_s = 0.0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
