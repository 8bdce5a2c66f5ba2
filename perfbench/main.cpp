// perfbench: runs one benchmark workload from a seed for a fixed time,
// checks every output, and prints its metrics. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured with the
// self-profiler off; with --trace 1 they are the per-layer ones, from a
// run that alternates untraced jobs with jobs traced by the profiler and
// the benchmark's own spans.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--references FILE] [--out DIR] [--write-references FILE]
//
// run.py builds this binary and calls it; README.md describes the
// workloads and metrics. setup_s is measured in fresh processes: the
// program starts itself again with --setup-probe T0 (T0 = steady-clock
// time just before the start), and the child reports how long after T0
// its first timed op could have run.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_core/fingerprint.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace perfbench;
using ks::obs::ProfKey;

/// Fresh processes whose set-up is timed; setup_s is their median.
constexpr std::size_t kSetupSamples = 21;
/// Messages of the warm-up experiment that ends every set-up.
constexpr std::uint64_t kWarmUpMessages = 100;
/// Experiment calls a run times at least (in its untraced jobs), so that
/// run_ms.p90 has ten samples above it.
constexpr std::size_t kMinRunSamples = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string references;
  std::string out_dir;
  std::string write_references;
  std::int64_t setup_probe_t0 = -1;  ///< >= 0: run as a set-up probe.
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--references FILE] [--out DIR] "
               "[--write-references FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 0);
      if (end == v.c_str() || *end != '\0') usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--references") {
      a.references = v;
    } else if (flag == "--out") {
      a.out_dir = v;
    } else if (flag == "--write-references") {
      a.write_references = v;
    } else if (flag == "--setup-probe") {
      a.setup_probe_t0 = std::strtoll(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0' || a.setup_probe_t0 < 0) {
        usage("bad --setup-probe " + v);
      }
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// --- reference digests ----------------------------------------------------
// One line per checked output: "<workload> <label> <digest hex>".

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::map<std::string, std::uint64_t> load_references(
    const std::string& path, const std::string& workload) {
  std::map<std::string, std::uint64_t> refs;
  for (const auto& line : read_lines(path)) {
    std::istringstream ss(line);
    std::string w, label, hex;
    if (!(ss >> w >> label >> hex) || w != workload) continue;
    refs[label] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return refs;
}

void write_references(const std::string& path, const std::string& workload,
                      const std::map<std::string, std::uint64_t>& digests) {
  std::vector<std::string> keep;
  for (const auto& line : read_lines(path)) {
    std::istringstream ss(line);
    std::string w;
    if (line.empty() || (ss >> w && w == workload)) continue;
    keep.push_back(line);
  }
  std::ofstream out(path);
  for (const auto& line : keep) out << line << '\n';
  for (const auto& [label, digest] : digests) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    out << workload << ' ' << label << ' ' << hex << '\n';
  }
}

// --- statistics -------------------------------------------------------------

/// Linear interpolation between closest ranks; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool is_sim_call(const OpRecord& op) { return op.messages > 0; }
bool is_experiment(const OpRecord& op) {
  return op.kind == "testbed.run_experiment";
}

template <class Pred>
std::vector<double> per_job(const std::vector<const JobRecord*>& jobs,
                            Pred&& value) {
  std::vector<double> out;
  for (const auto* j : jobs) out.push_back(value(*j));
  return out;
}

/// Median over jobs of the summed wall time of the ops of one kind.
double median_kind_s(const std::vector<const JobRecord*>& jobs,
                     const std::string& kind) {
  return median(per_job(jobs, [&](const JobRecord& j) {
    double s = 0.0;
    for (const auto& op : j.ops) s += op.kind == kind ? op.wall_s : 0.0;
    return s;
  }));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- end-to-end metrics (untraced jobs) ------------------------------------

std::vector<Metric> end_to_end(const std::vector<const JobRecord*>& jobs,
                               const std::vector<double>& setup_s,
                               std::size_t& run_samples) {
  std::vector<double> run_ms;
  for (const auto* j : jobs) {
    for (const auto& op : j->ops) {
      if (is_sim_call(op)) run_ms.push_back(op.wall_s * 1e3);
    }
  }
  run_samples = run_ms.size();
  const auto msgs_per_s = per_job(jobs, [](const JobRecord& j) {
    double msgs = 0.0, wall = 0.0;
    for (const auto& op : j.ops) {
      if (!is_sim_call(op)) continue;
      msgs += static_cast<double>(op.messages);
      wall += op.wall_s;
    }
    return ratio(msgs, wall);
  });
  return {
      {"setup_s", median(setup_s), "s"},
      {"job_s", median(per_job(jobs, [](const JobRecord& j) {
         return j.job_s;
       })),
       "s"},
      {"msgs_per_s", median(msgs_per_s), "msg/s"},
      {"run_ms.p50", percentile(run_ms, 0.5), "ms"},
      {"run_ms.p90", percentile(run_ms, 0.9), "ms"},
      {"peak_rss_mb", static_cast<double>(ks::obs::peak_rss_kb()) / 1024.0,
       "MiB"},
  };
}

// --- per-layer metrics (traced jobs, plus their untraced twins) ------------

std::vector<Metric> per_layer(const std::vector<const JobRecord*>& traced,
                              const std::vector<const JobRecord*>& untraced,
                              const std::vector<double>& generate_s,
                              const SpanLog& spans, std::uint64_t attempted,
                              std::uint64_t failed) {
  // Totals over the traced jobs.
  ks::obs::Profiler::Snapshot prof{};
  double exp_wall_ns = 0.0, overhead_ns = 0.0;
  double exp_alloc_count = 0.0, exp_alloc_bytes = 0.0, train_allocs = 0.0;
  double train_sample_epochs = 0.0, predict_calls = 0.0;
  double online_evaluations = 0.0, reconfigurations = 0.0;
  SimCounters sim;
  for (const auto* j : traced) {
    for (const auto& op : j->ops) {
      for (std::size_t k = 0; k < ks::obs::kProfKeyCount; ++k) {
        prof.sections[k].calls += op.prof.sections[k].calls;
        prof.sections[k].total_ns += op.prof.sections[k].total_ns;
      }
      if (op.kind == "kpi.ReliabilityPredictor::train") {
        train_allocs += static_cast<double>(op.prof.alloc_count);
      }
      if (!is_experiment(op)) continue;
      const double wall_ns = op.wall_s * 1e9;
      exp_wall_ns += wall_ns;
      exp_alloc_count += static_cast<double>(op.prof.alloc_count);
      exp_alloc_bytes += static_cast<double>(op.prof.alloc_bytes);
      overhead_ns +=
          wall_ns -
          static_cast<double>(
              op.prof.section(ProfKey::kEventDispatch).total_ns) -
          static_cast<double>(op.prof.section(ProfKey::kReportBuild).total_ns);
    }
    sim += j->sim;
    train_sample_epochs += static_cast<double>(j->train_sample_epochs);
    predict_calls += static_cast<double>(j->predict_calls);
    online_evaluations += static_cast<double>(j->online_evaluations);
    reconfigurations += static_cast<double>(j->reconfigurations);
  }
  const double jobs = static_cast<double>(traced.size());
  const double msgs = static_cast<double>(sim.messages);
  const double experiments = static_cast<double>(sim.experiments);
  const auto sec = [&](ProfKey k) { return prof.section(k); };
  const auto mean_ns = [&](ProfKey k) {
    return ratio(static_cast<double>(sec(k).total_ns),
                 static_cast<double>(sec(k).calls));
  };
  const auto per = [](std::uint64_t n, double den) {
    return ratio(static_cast<double>(n), den);
  };

  // Scaling shape from the untraced jobs: per-message wall time and
  // allocated bytes of the 2N runs over those of the N runs.
  double wall[3] = {}, bytes[3] = {}, scale_msgs[3] = {};
  for (const auto* j : untraced) {
    for (const auto& op : j->ops) {
      if (op.scale < 1 || op.scale > 2) continue;
      wall[op.scale] += op.wall_s;
      bytes[op.scale] += static_cast<double>(op.prof.alloc_bytes);
      scale_msgs[op.scale] += static_cast<double>(op.messages);
    }
  }
  const double growth = ratio(ratio(wall[2], scale_msgs[2]),
                              ratio(wall[1], scale_msgs[1]));
  const double alloc_growth = ratio(ratio(bytes[2], scale_msgs[2]),
                                    ratio(bytes[1], scale_msgs[1]));

  // Span coverage: self time of the call spans (every span under a job span
  // that is not a check) over job_s, which excludes the checks.
  const auto self = spans.self_ns();
  double op_self_ns = 0.0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const auto& s = spans.spans()[i];
    if (s.parent == 0 || s.name == "chaos.check_invariants" ||
        s.name == "digest") {
      continue;
    }
    op_self_ns += static_cast<double>(self[i]);
  }
  const auto job_s = [](const std::vector<const JobRecord*>& js) {
    return per_job(js, [](const JobRecord& j) { return j.job_s; });
  };
  double traced_job_s = 0.0;
  for (const auto* j : traced) traced_job_s += j->job_s;

  const double train_s =
      median_kind_s(traced, "kpi.ReliabilityPredictor::train");
  const double predict_s =
      median_kind_s(traced, "kpi.ReliabilityPredictor::predict");

  return {
      {"sim.dispatch_ns", mean_ns(ProfKey::kEventDispatch), "ns"},
      {"sim.allocs_per_event",
       ratio(exp_alloc_count, static_cast<double>(sim.events)), "alloc/event"},
      {"sim.events_per_msg", per(sim.events, msgs), "event/msg"},
      {"kafka.produce_us", mean_ns(ProfKey::kBrokerProduce) / 1e3, "us"},
      {"kafka.produce_share",
       ratio(static_cast<double>(sec(ProfKey::kBrokerProduce).total_ns),
             exp_wall_ns),
       "ratio"},
      {"kafka.growth_ratio", growth, "ratio"},
      {"kafka.alloc_growth_ratio", alloc_growth, "ratio"},
      {"testbed.alloc_bytes_per_msg", ratio(exp_alloc_bytes, msgs), "B/msg"},
      {"tcp.segment_ns", mean_ns(ProfKey::kTcpSegment), "ns"},
      {"tcp.segments_per_msg", per(sec(ProfKey::kTcpSegment).calls, msgs),
       "seg/msg"},
      {"tcp.retx_ratio",
       per(sim.tcp_retransmissions,
           static_cast<double>(sim.tcp_segments_sent)),
       "ratio"},
      {"tcp.rto_per_kmsg", per(sim.tcp_rto_events, msgs) * 1e3, "1/kmsg"},
      {"net.loss_ratio",
       per(sim.link_packets_lost, static_cast<double>(sim.tcp_segments_sent)),
       "ratio"},
      {"net.queue_drops_per_kmsg", per(sim.link_queue_drops, msgs) * 1e3,
       "1/kmsg"},
      {"kafka.retry_ratio", per(sim.requests_retried, msgs), "ratio"},
      {"kafka.fetch_us", mean_ns(ProfKey::kBrokerFetch) / 1e3, "us"},
      {"kafka.fetches_per_msg", per(sec(ProfKey::kBrokerFetch).calls, msgs),
       "1/msg"},
      {"kafka.drain_records_per_msg", per(sim.consumer_records, msgs),
       "record/msg"},
      {"kafka.group_fetched_per_msg", per(sim.group_records_fetched, msgs),
       "record/msg"},
      {"kafka.rebalances_per_run", per(sim.group_rebalances, experiments),
       "1/run"},
      {"kafka.elections_per_run", per(sim.leader_elections, experiments),
       "1/run"},
      {"kafka.isr_shrinks_per_run", per(sim.isr_shrinks, experiments),
       "1/run"},
      {"kafka.storage.flushes_per_kmsg", per(sim.log_flushes, msgs) * 1e3,
       "1/kmsg"},
      {"kafka.storage.recovered_records", per(sim.records_recovered, jobs),
       "record"},
      {"kafka.storage.discarded_records", per(sim.records_discarded, jobs),
       "record"},
      {"testbed.overhead_ms", ratio(overhead_ns, experiments) / 1e6, "ms"},
      {"obs.report_build_ms", mean_ns(ProfKey::kReportBuild) / 1e6, "ms"},
      {"obs.health_ticks_per_run", per(sim.health_ticks, experiments),
       "1/run"},
      {"ann.train_s", train_s, "s"},
      {"ann.train_samples_per_s", ratio(train_sample_epochs / jobs, train_s),
       "sample/s"},
      {"ann.train_allocs", ratio(train_allocs, jobs), "alloc"},
      {"ann.infer_us", ratio(predict_s * 1e6, predict_calls / jobs), "us"},
      {"kpi.schedule_ms",
       median_kind_s(traced, "kpi.DynamicConfigurator::build_schedule") * 1e3,
       "ms"},
      {"kpi.replay_s", median_kind_s(traced, "kpi.run_dynamic_experiment"),
       "s"},
      {"kpi.online_evaluations", ratio(online_evaluations, jobs), "count"},
      {"kpi.reconfigurations", ratio(reconfigurations, jobs), "count"},
      {"chaos.generate_ms", median(generate_s) * 1e3, "ms"},
      {"chaos.check_ms", median(per_job(traced, [](const JobRecord& j) {
         return j.invariant_s;
       })) * 1e3,
       "ms"},
      {"trace.overhead_frac",
       ratio(median(job_s(traced)), median(job_s(untraced))) - 1.0, "ratio"},
      {"trace.span_coverage", ratio(op_self_ns / 1e9, traced_job_s), "ratio"},
      {"failed_frac",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
}

// --- set-up ----------------------------------------------------------------

/// Builds every input from the seed, then runs one small default-scenario
/// experiment so that lazy initialisation is done before anything is
/// timed. The warm-up is the same for every workload and seed.
void set_up(Workload& workload, std::uint64_t seed) {
  workload.setup(seed);
  ks::testbed::Scenario warm;
  warm.num_messages = kWarmUpMessages;
  ks::testbed::run_experiment(warm);
}

struct SetupSample {
  double setup_s = 0.0;
  double generate_s = 0.0;
};

/// Starts this program again as a set-up probe and waits for it to end.
/// The sample runs from just before the start (exec, dynamic linking,
/// static initialisation and argument parsing included) until the child's
/// set-up is done. Returns false if the child could not run or failed.
bool probe_set_up(const Args& args, SetupSample& out) {
  char exe[4096];
  const auto len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return false;
  exe[len] = '\0';
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  const auto t0 = clock_ns();
  std::vector<std::string> argv_s = {exe,
                                     "--workload",
                                     args.workload,
                                     "--seed",
                                     std::to_string(args.seed),
                                     "--setup-probe",
                                     std::to_string(t0)};
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);

  std::string reply;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) return false;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  long long setup_ns = 0;
  double generate_s = 0.0;
  if (std::sscanf(reply.c_str(), "%lld %lf", &setup_ns, &generate_s) != 2) {
    return false;
  }
  out.setup_s = static_cast<double>(setup_ns) / 1e9;
  out.generate_s = generate_s;
  return true;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  auto workload = make_workload(args.workload);
  if (!workload) usage("unknown workload " + args.workload);

  if (args.setup_probe_t0 >= 0) {
    set_up(*workload, args.seed);
    std::printf("%lld %.9f\n",
                static_cast<long long>(clock_ns() - args.setup_probe_t0),
                workload->generate_s);
    return 0;
  }

  std::map<std::string, std::uint64_t> references;
  if (args.seed == kDefaultSeed && args.write_references.empty() &&
      !args.references.empty()) {
    references = load_references(args.references, args.workload);
    if (references.empty()) {
      std::fprintf(stderr, "perfbench: no %s references in %s\n",
                   args.workload.c_str(), args.references.c_str());
      return 2;
    }
  }
  Digests digests(std::move(references));

  if (!args.write_references.empty()) {
    set_up(*workload, args.seed);
    Job job(digests, nullptr);
    workload->run(job);
    job.finish();
    write_references(args.write_references, args.workload, digests.seen());
    std::printf("wrote %zu %s digests to %s\n", digests.seen().size(),
                args.workload.c_str(), args.write_references.c_str());
    return 0;
  }

  // Set-up is timed cold, in fresh processes. The kSetupSamples probes are
  // spread over the run, between jobs, so that their median sees the host
  // over the same stretch of time as the jobs do.
  std::vector<double> setup_s, generate_s;
  const auto probe_until = [&](std::size_t samples) {
    while (setup_s.size() < samples) {
      SetupSample sample;
      if (!probe_set_up(args, sample)) return false;
      setup_s.push_back(sample.setup_s);
      generate_s.push_back(sample.generate_s);
    }
    return true;
  };
  if (!probe_until(1)) {
    std::fprintf(stderr, "perfbench: set-up probe failed\n");
    return 1;
  }
  set_up(*workload, args.seed);

  // Measure: whole jobs until the time is up. A traced run alternates
  // untraced and traced jobs, so the two are measured under the same
  // conditions and their ratio is the tracing overhead.
  SpanLog spans;
  std::vector<JobRecord> jobs;
  const std::size_t min_jobs = args.trace ? 4 : 2;
  std::size_t run_samples_so_far = 0;
  const auto start = clock_ns();
  for (;;) {
    const double elapsed = static_cast<double>(clock_ns() - start) / 1e9;
    if (elapsed >= args.seconds && jobs.size() >= min_jobs &&
        run_samples_so_far >= kMinRunSamples &&
        jobs.size() % (args.trace ? 2 : 1) == 0) {
      break;
    }
    const auto due = 1 + static_cast<std::size_t>(kSetupSamples * elapsed /
                                                  args.seconds);
    if (!probe_until(std::min<std::size_t>(due, kSetupSamples))) {
      std::fprintf(stderr, "perfbench: set-up probe failed\n");
      return 1;
    }
    const bool traced = args.trace && jobs.size() % 2 == 1;
    ks::obs::profiler().enable(traced);
    Job job(digests, traced ? &spans : nullptr);
    workload->run(job);
    job.finish();
    ks::obs::profiler().enable(false);
    if (!traced) {
      run_samples_so_far += static_cast<std::size_t>(std::count_if(
          job.record().ops.begin(), job.record().ops.end(), is_sim_call));
    }
    jobs.push_back(std::move(job.record()));
  }
  if (!probe_until(kSetupSamples)) {
    std::fprintf(stderr, "perfbench: set-up probe failed\n");
    return 1;
  }

  // Every job makes the same calls, so attempted and failed count distinct
  // outputs: an output that fails in any job counts once. The counts then
  // do not depend on how many jobs fit in the run.
  std::vector<const JobRecord*> traced, untraced;
  std::uint64_t mismatched = 0;
  std::map<std::string, std::string> failures;
  for (const auto& j : jobs) {
    (j.traced ? traced : untraced).push_back(&j);
    mismatched += j.mismatched;
    failures.insert(j.failures.begin(), j.failures.end());
  }
  const std::uint64_t attempted = digests.seen().size();
  const std::uint64_t failed = failures.size();

  std::size_t run_samples = 0;
  const auto metrics =
      args.trace ? per_layer(traced, untraced, generate_s, spans, attempted,
                             failed)
                 : end_to_end(untraced, setup_s, run_samples);

  // Disclosure: seed, build, host and inputs, with counts beside the times.
  const auto fp = ks::bench::capture_fingerprint();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const auto& sim = jobs.front().sim;
  std::printf("# perfbench %s seed=%llu (0x%llx) seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# build: %s %s [%s] %s; host: %s, nproc=%ld\n",
              fp.git_sha.c_str(), fp.build_type.c_str(), fp.flags.c_str(),
              fp.compiler.c_str(), fp.os.c_str(), nproc);
  std::printf("# jobs=%zu (traced %zu); per job: ops=%zu experiments=%llu "
              "messages=%llu events=%llu (%.2f events/msg)\n",
              jobs.size(), traced.size(), jobs.front().ops.size(),
              static_cast<unsigned long long>(sim.experiments),
              static_cast<unsigned long long>(sim.messages),
              static_cast<unsigned long long>(sim.events),
              ratio(static_cast<double>(sim.events),
                    static_cast<double>(sim.messages)));
  if (!args.trace) {
    std::printf("# run_ms samples: %zu\n", run_samples);
  }
  for (const auto& [label, why] : failures) {
    std::printf("# failed: %s: %s\n", label.c_str(), why.c_str());
  }
  for (const auto& m : metrics) {
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    ks::obs::JsonWriter w;
    w.begin_object();
    w.key("workload");
    w.value(args.workload);
    w.key("seed");
    w.value(args.seed);
    w.key("seconds");
    w.value(args.seconds);
    w.key("trace");
    w.value(args.trace);
    w.key("fingerprint");
    w.begin_object();
    w.key("git_sha");
    w.value(fp.git_sha);
    w.key("compiler");
    w.value(fp.compiler);
    w.key("flags");
    w.value(fp.flags);
    w.key("build_type");
    w.value(fp.build_type);
    w.key("os");
    w.value(fp.os);
    w.key("host");
    w.value(fp.host);
    w.key("nproc");
    w.value(static_cast<std::int64_t>(nproc));
    w.end_object();
    w.key("inputs");
    w.begin_object();
    workload->disclose(w);
    w.end_object();
    w.key("setup_s");
    w.begin_array();
    for (const double s : setup_s) w.value(s);
    w.end_array();
    w.key("jobs");
    w.begin_array();
    for (const auto& j : jobs) {
      w.begin_object();
      w.key("traced");
      w.value(j.traced);
      w.key("job_s");
      w.value(j.job_s);
      w.key("check_s");
      w.value(j.check_s);
      w.key("messages");
      w.value(j.sim.messages);
      w.key("events");
      w.value(j.sim.events);
      w.key("attempted");
      w.value(j.attempted);
      w.key("failed");
      w.value(j.failed);
      w.key("op_ms");
      w.begin_object();
      for (const auto& op : j.ops) {
        w.key(op.label);
        w.value(op.wall_s * 1e3);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.key("failures");
    w.begin_array();
    for (const auto& [label, why] : failures) w.value(label + ": " + why);
    w.end_array();
    w.key("metrics");
    w.begin_object();
    for (const auto& m : metrics) {
      w.key(m.name);
      w.value(m.value);
    }
    w.end_object();
    w.end_object();
    write_file(stem + ".json", w.str());
    if (args.trace) {
      write_file(stem + ".perfetto.json", spans.chrome_trace_json());
    }
  }

  ks::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(mismatched == 0);
  w.key("attempted");
  w.value(attempted);
  w.key("failed");
  w.value(failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
