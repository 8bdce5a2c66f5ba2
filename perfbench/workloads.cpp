// The three benchmark workloads. README.md says why each exists and which
// layer metrics it should move.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ann/dataset.hpp"
#include "ann/network.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "kpi/dynamic_config.hpp"
#include "kpi/online_controller.hpp"
#include "kpi/predictor.hpp"
#include "net/trace.hpp"
#include "testbed/workloads.hpp"

namespace perfbench {

namespace {

namespace tb = ks::testbed;
using ks::kafka::DeliverySemantics;

constexpr DeliverySemantics kBothSemantics[] = {
    DeliverySemantics::kAtMostOnce, DeliverySemantics::kAtLeastOnce};

const char* semantics_name(DeliverySemantics s) {
  switch (s) {
    case DeliverySemantics::kAtMostOnce: return "at-most-once";
    case DeliverySemantics::kAtLeastOnce: return "at-least-once";
    case DeliverySemantics::kExactlyOnce: return "exactly-once";
  }
  return "unknown";
}

/// A ChaosScenario that promises nothing, so check_invariants applies only
/// its always-on checks.
ks::chaos::ChaosScenario unpromised(const tb::Scenario& sc) {
  ks::chaos::ChaosScenario cs;
  cs.scenario = sc;
  return cs;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// full_load_stream: the Fig. 5/6 regime. One partition, RF = 1, no faults,
// an on-demand source at full speed, so a single long partition log takes
// every append. Runs at N and 2N messages under both at-most-once and
// at-least-once; the N/2N pair measures how per-message cost grows with
// log length. Each semantics runs N twice (two seeds) and 2N once, so both
// lengths carry the same message volume, and the median and 90th
// percentile of the run times fall inside a group of like runs rather than
// on the gap between two. That set of six runs is drawn kSeedSets times
// with fresh simulation seeds: the cost of one run depends on its seed, and
// the 90th percentile falls among the 2N at-least-once runs, so it needs
// several of them to not follow a single seed.
class FullLoadStream : public Workload {
 public:
  static constexpr std::uint64_t kN = 6000;
  static constexpr int kSeedSets = 4;

  void setup(std::uint64_t seed) override {
    runs_.clear();
    ks::SplitMix64 seeds(seed);
    for (int set = 0; set < kSeedSets; ++set) {
      for (const auto semantics : kBothSemantics) {
        for (const int scale : {1, 1, 2}) {
          tb::Scenario sc;
          sc.source_mode = tb::SourceMode::kOnDemand;
          sc.poll_interval = 0;
          sc.message_timeout = ks::millis(500);
          sc.partitions = 1;
          sc.replication_factor = 1;
          sc.broker_regimes = true;
          sc.semantics = semantics;
          sc.num_messages = kN * static_cast<std::uint64_t>(scale);
          sc.seed = seeds.next();
          runs_.push_back({unpromised(sc), scale,
                           std::string(semantics_name(semantics)) + "/n=" +
                               std::to_string(sc.num_messages) + "#" +
                               std::to_string(runs_.size())});
        }
      }
    }
  }

  void run(Job& job) override {
    for (const auto& r : runs_) job.experiment(r.cs, r.label, r.scale);
  }

  void disclose(ks::obs::JsonWriter& w) const override {
    w.key("source");
    w.value("on-demand, poll interval 0");
    w.key("message_timeout_ms");
    w.value(500);
    w.key("partitions");
    w.value(1);
    w.key("replication_factor");
    w.value(1);
    w.key("faults");
    w.value("none");
    w.key("broker_regimes");
    w.value(true);
    w.key("runs");
    w.begin_array();
    for (const auto& r : runs_) {
      w.begin_object();
      w.key("label");
      w.value(r.label);
      w.key("num_messages");
      w.value(r.cs.scenario.num_messages);
      w.key("seed");
      w.value(r.cs.scenario.seed);
      w.end_object();
    }
    w.end_array();
  }

 private:
  struct Run {
    ks::chaos::ChaosScenario cs;
    int scale = 0;
    std::string label;
  };
  std::vector<Run> runs_;
};

// ---------------------------------------------------------------------------
// cluster_faults: chaos scenarios expanded from the workload seed (its
// master seed): 400 under group_faults and 50 under disk_faults. Many
// short RF = 3 runs with live consumer groups, power loss and recovery
// scans, and NetEm. The disk runs are fewer but longer, so they still take
// about 40% of the job; with half of each, the median and the 90th
// percentile of the run times fall between time modes and jump with the
// seed (README.md). broker_faults is left out: its generator trains the
// synthetic predictor on its first adaptive draw, which would land in
// set-up (README.md).
class ClusterFaults : public Workload {
 public:
  static constexpr std::uint64_t kGroupRuns = 400;
  static constexpr std::uint64_t kDiskRuns = 50;

  void setup(std::uint64_t seed) override {
    scenarios_.clear();
    generate_s = 0.0;
    for (const auto [profile, runs] :
         {std::pair{ks::chaos::Profile::kGroupFaults, kGroupRuns},
          std::pair{ks::chaos::Profile::kDiskFaults, kDiskRuns}}) {
      for (std::uint64_t i = 0; i < runs; ++i) {
        const auto t0 = clock_ns();
        auto cs = ks::chaos::generate_scenario(
            ks::chaos::scenario_seed(seed, i), profile);
        generate_s += static_cast<double>(clock_ns() - t0) / 1e9;
        scenarios_.push_back(
            {std::move(cs),
             std::string(ks::chaos::to_string(profile)) + "#" +
                 std::to_string(i)});
      }
    }
    master_seed_ = seed;
  }

  void run(Job& job) override {
    for (const auto& s : scenarios_) job.experiment(s.cs, s.label);
  }

  void disclose(ks::obs::JsonWriter& w) const override {
    w.key("master_seed");
    w.value(master_seed_);
    w.key("group_faults_scenarios");
    w.value(kGroupRuns);
    w.key("disk_faults_scenarios");
    w.value(kDiskRuns);
    w.key("scenarios");
    w.begin_array();
    for (const auto& s : scenarios_) {
      w.begin_object();
      w.key("label");
      w.value(s.label);
      w.key("chaos_seed");
      w.value(s.cs.chaos_seed);
      w.key("describe");
      w.value(s.cs.describe());
      w.end_object();
    }
    w.end_array();
  }

 private:
  struct Entry {
    ks::chaos::ChaosScenario cs;
    std::string label;
  };
  std::vector<Entry> scenarios_;
  std::uint64_t master_seed_ = 0;
};

// ---------------------------------------------------------------------------
// learn_and_tune: the paper's pipeline as one job. A seeded Fig. 3 grid
// (normal runs plus NetEm loss/delay runs), ReliabilityPredictor::train
// with the paper architecture, predictions on a seeded probe set,
// build_schedule over a seeded Fig. 9 trace, then two trace replays: the
// offline schedule and the OnlineController. The grid is kept small so
// that training is a large share of the job. The job runs the pipeline
// kPipelines times, each with its own seeds: the cost of a NetEm grid run
// depends on its seed, and the 90th percentile of the run times falls among
// the heaviest of them, so it needs more than one draw of each.
class LearnAndTune : public Workload {
 public:
  static constexpr int kPipelines = 4;
  static constexpr std::uint64_t kGridMessages = 2000;
  static constexpr std::size_t kProbes = 64;
  static constexpr std::size_t kEpochs = 200;
  static constexpr double kTestFraction = 0.2;
  static constexpr int kTraceSeconds = 120;
  static constexpr double kGammaRequirement = 0.97;
  static constexpr auto kSemantics = DeliverySemantics::kAtLeastOnce;

  void setup(std::uint64_t seed) override {
    pipelines_.clear();
    ks::SplitMix64 seeds(seed);
    for (int k = 0; k < kPipelines; ++k) {
      // The first pipeline keeps the workload seed itself, so its outputs
      // and labels are those of a single-pipeline job.
      pipelines_.push_back(
          make_pipeline(k == 0 ? seed : seeds.next(),
                        k == 0 ? "" : "p" + std::to_string(k) + "/"));
    }
  }

  void run(Job& job) override {
    for (const auto& p : pipelines_) run_pipeline(job, p);
  }

  void disclose(ks::obs::JsonWriter& w) const override {
    w.key("pipelines");
    w.value(pipelines_.size());
    w.key("grid_normal_runs");
    w.value(pipelines_.front().normal.size());
    w.key("grid_abnormal_runs");
    w.value(pipelines_.front().abnormal.size());
    w.key("grid_messages_per_run");
    w.value(kGridMessages);
    w.key("train");
    w.value("paper architecture, " + std::to_string(kEpochs) +
            " epochs, lr 0.5, batch 16, 20% held out");
    w.key("probes");
    w.value(kProbes);
    w.key("trace_seconds");
    w.value(kTraceSeconds);
    w.key("replay_workload");
    w.value(tb::social_media().name);
    w.key("replays");
    w.value("offline schedule (60 s checks) and online controller "
            "(1 s tick, 15 s cooldown), at-least-once, gamma >= 0.97");
    w.key("per_pipeline");
    w.begin_array();
    for (const auto& p : pipelines_) {
      w.begin_object();
      w.key("label_prefix");
      w.value(p.prefix);
      w.key("trace_mean_delay_us");
      w.value(static_cast<std::int64_t>(p.trace.mean_delay()));
      w.key("trace_mean_loss");
      w.value(p.trace.mean_loss());
      w.key("grid");
      w.begin_array();
      for (const auto* set : {&p.normal, &p.abnormal}) {
        for (const auto& sc : *set) {
          w.begin_object();
          w.key("semantics");
          w.value(semantics_name(sc.semantics));
          w.key("timeout_ms");
          w.value(ks::to_millis(sc.message_timeout));
          w.key("poll_ms");
          w.value(ks::to_millis(sc.poll_interval));
          w.key("batch");
          w.value(sc.batch_size);
          w.key("message_size");
          w.value(static_cast<std::int64_t>(sc.message_size));
          w.key("delay_ms");
          w.value(ks::to_millis(sc.network_delay));
          w.key("loss");
          w.value(sc.packet_loss);
          w.key("seed");
          w.value(sc.seed);
          w.end_object();
        }
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }

 private:
  /// One run of the pipeline's inputs, all drawn from one seed.
  struct Pipeline {
    std::string prefix;  ///< Label prefix of the pipeline's outputs.
    std::vector<tb::Scenario> normal, abnormal, probes;
    ks::net::NetworkTrace trace;
    std::uint64_t train_seed = 0;
    std::uint64_t replay_seed = 0;
  };

  static Pipeline make_pipeline(std::uint64_t seed, std::string prefix) {
    ks::Rng rng(seed);
    Pipeline p;
    p.prefix = std::move(prefix);
    // The grid points are fixed, so every seed costs about the same; the
    // seed draws the runs' simulation seeds, the probes and the trace.
    for (const auto semantics : kBothSemantics) {
      for (const auto timeout : {ks::millis(250), ks::millis(500),
                                 ks::millis(1000), ks::millis(4000)}) {
        for (const int poll_ms : {0, 20}) {
          tb::Scenario sc;
          sc.semantics = semantics;
          sc.timeliness = ks::seconds(2);
          sc.message_timeout = timeout;
          sc.poll_interval = ks::millis(poll_ms);
          sc.batch_size = poll_ms == 0 ? 1 : 4;
          sc.num_messages = kGridMessages;
          sc.seed = rng.next_u64();
          p.normal.push_back(sc);
        }
      }
      // Fig. 3: the normal-case features pinned to values at which they no
      // longer matter (T_o = 1500 ms, poll 0) while {M, D, L, B} sweep.
      for (const ks::Bytes size : {100, 1000}) {
        for (const double loss : {0.05, 0.10, 0.16, 0.25}) {
          for (const int batch : {1, 4}) {
            tb::Scenario sc;
            sc.semantics = semantics;
            sc.message_size = size;
            sc.network_delay = ks::millis(50);
            sc.packet_loss = loss;
            sc.batch_size = batch;
            sc.message_timeout = ks::millis(1500);
            sc.poll_interval = 0;
            sc.num_messages = kGridMessages;
            sc.seed = rng.next_u64();
            p.abnormal.push_back(sc);
          }
        }
      }
    }
    for (std::size_t i = 0; i < kProbes; ++i) {
      p.probes.push_back(probe(rng, kBothSemantics[i % 2], i < kProbes / 2));
    }
    ks::net::TraceGenConfig tg;
    tg.duration = ks::seconds(kTraceSeconds);
    ks::Rng trace_rng(rng.next_u64());
    p.trace = ks::net::generate_trace(tg, trace_rng);
    p.train_seed = rng.next_u64();
    p.replay_seed = rng.next_u64();
    return p;
  }

  static void run_pipeline(Job& job, const Pipeline& p) {
    ks::ann::Dataset normal, abnormal;
    for (std::size_t i = 0; i < p.normal.size(); ++i) {
      const auto r =
          job.experiment(unpromised(p.normal[i]),
                         p.prefix + "collect/normal#" + std::to_string(i));
      normal.add(p.normal[i].normal_features(), {r.p_loss, r.p_duplicate});
    }
    for (std::size_t i = 0; i < p.abnormal.size(); ++i) {
      const auto r =
          job.experiment(unpromised(p.abnormal[i]),
                         p.prefix + "collect/abnormal#" + std::to_string(i));
      abnormal.add(p.abnormal[i].abnormal_features(),
                   {r.p_loss, r.p_duplicate});
    }

    ks::ann::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.learning_rate = 0.5;
    tc.batch_size = 16;
    ks::Rng train_rng(p.train_seed);
    ks::kpi::ReliabilityPredictor predictor;
    job.record().train_sample_epochs +=
        (train_rows(p.normal.size()) + train_rows(p.abnormal.size())) *
        kEpochs;
    const auto trained = job.call(
        "kpi.ReliabilityPredictor::train", p.prefix + "train", 0, [&] {
          return predictor.train(std::move(normal), std::move(abnormal), tc,
                                 train_rng, kTestFraction);
        });
    job.check_last(
        [&] {
          return fmt_double(trained.normal_mae) + " " +
                 fmt_double(trained.abnormal_mae);
        },
        std::isfinite(trained.normal_mae) &&
                std::isfinite(trained.abnormal_mae)
            ? ""
            : "non-finite held-out MAE");

    const auto predictions = job.call(
        "kpi.ReliabilityPredictor::predict", p.prefix + "predict/probes", 0,
        [&] {
          std::vector<ks::kpi::ReliabilityPredictor::Prediction> out;
          for (const auto& sc : p.probes) out.push_back(predictor.predict(sc));
          return out;
        });
    job.record().predict_calls += p.probes.size();
    std::string bad_prediction;
    for (const auto& pr : predictions) {
      if (!(pr.p_loss >= 0.0 && pr.p_loss <= 1.0 && pr.p_duplicate >= 0.0 &&
            pr.p_duplicate <= 1.0)) {
        bad_prediction = "prediction outside [0, 1]";
      }
    }
    job.check_last(
        [&] {
          std::string s;
          for (const auto& pr : predictions) {
            s += fmt_double(pr.p_loss) + " " + fmt_double(pr.p_duplicate) +
                 "\n";
          }
          return s;
        },
        bad_prediction);

    const auto workload = tb::social_media();
    const auto weights = ks::kpi::KpiWeights::from_array(workload.weights);
    const ks::kpi::DynamicConfigurator configurator(predictor, weights,
                                                    kGammaRequirement);
    const auto schedule = job.call(
        "kpi.DynamicConfigurator::build_schedule", p.prefix + "schedule", 0,
        [&] {
          return configurator.build_schedule(p.trace, ks::seconds(60),
                                             workload, kSemantics);
        });
    job.check_last([&] {
      std::string s;
      for (const auto& e : schedule) {
        s += std::to_string(e.start) + " " +
             std::to_string(e.params.batch_size) + " " +
             std::to_string(e.params.poll_interval) + " " +
             std::to_string(e.params.message_timeout) + " " +
             fmt_double(e.predicted_gamma) + "\n";
      }
      return s;
    });

    replay(job, p, "replay/schedule", workload, weights, &schedule, nullptr);
    ks::kpi::OnlineController::Config occ;
    occ.interval = ks::seconds(1);
    occ.cooldown = ks::seconds(15);
    ks::kpi::OnlineController controller(predictor, workload, kSemantics,
                                         weights, kGammaRequirement, occ);
    replay(job, p, "replay/online", workload, weights, nullptr, &controller);
  }

  /// Rows of a dataset of `rows` that train() fits on: what
  /// Dataset::split leaves after holding out kTestFraction.
  static std::size_t train_rows(std::size_t rows) {
    return rows - static_cast<std::size_t>(static_cast<double>(rows) *
                                           kTestFraction);
  }

  /// A probe point for the predictor: normal-network features when
  /// `normal`, NetEm loss/delay features otherwise.
  static tb::Scenario probe(ks::Rng& rng, DeliverySemantics sem,
                            bool normal) {
    tb::Scenario sc;
    sc.semantics = sem;
    sc.batch_size = 1 << rng.uniform_int(0, 3);
    if (normal) {
      sc.message_timeout = ks::millis(rng.uniform_int(250, 4000));
      sc.poll_interval = ks::millis(rng.uniform_int(0, 20));
    } else {
      sc.message_size = rng.uniform_int(100, 1000);
      sc.network_delay = ks::millis(rng.uniform_int(20, 100));
      sc.packet_loss = rng.uniform(0.02, 0.3);
    }
    return sc;
  }

  static void replay(Job& job, const Pipeline& p, const char* label,
                     const tb::Workload& workload,
                     const ks::kpi::KpiWeights& weights,
                     const std::vector<ks::kpi::ScheduleEntry>* schedule,
                     tb::AdaptiveDriver* online) {
    const auto r = job.call(
        "kpi.run_dynamic_experiment", p.prefix + label, 0, [&] {
          return ks::kpi::run_dynamic_experiment(p.trace, workload, kSemantics,
                                                 schedule, weights,
                                                 p.replay_seed, online);
        });
    job.record().ops.back().messages = r.census.total_keys;
    if (online != nullptr) {
      job.record().online_evaluations += r.online_evaluations;
    }
    job.record().reconfigurations += r.reconfigurations;
    const auto& c = r.census;
    job.check_last(
        [&] {
          return std::to_string(c.total_keys) + " " +
                 std::to_string(c.delivered) + " " +
                 std::to_string(c.duplicated) + " " +
                 std::to_string(c.lost) + " " +
                 std::to_string(c.appended_records) + " " +
                 fmt_double(r.overall_loss_rate) + " " +
                 fmt_double(r.overall_duplicate_rate) + " " +
                 fmt_double(r.measured_gamma) + " " +
                 fmt_double(r.duration_s) + " " +
                 std::to_string(r.reconfigurations) + " " +
                 std::to_string(r.online_evaluations) + " " +
                 std::to_string(r.online_suppressed) + " " +
                 std::to_string(r.completed);
        },
        c.delivered + c.duplicated + c.lost == c.total_keys
            ? ""
            : "census does not conserve keys");
  }

  std::vector<Pipeline> pipelines_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "full_load_stream") return std::make_unique<FullLoadStream>();
  if (name == "cluster_faults") return std::make_unique<ClusterFaults>();
  if (name == "learn_and_tune") return std::make_unique<LearnAndTune>();
  return nullptr;
}

}  // namespace perfbench
