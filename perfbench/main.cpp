// The repository benchmark's entry point. It runs one workload
// (workloads.hpp) for a budget of host seconds and prints, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--shards K] [--record FILE]
//             [--git-sha SHA]
//   perfbench --list
//
// With --trace 0 an iteration is one untraced exp::run_scenario call (the
// entry point mobidist_sweep uses) followed by set-up passes, and the run
// reports the end-to-end metrics. With --trace 1 an iteration is one
// untraced call plus one traced run (pipeline.hpp), and the run reports
// per-layer spans and exact counts. Every run is checked: a wrong result
// counts as a failed run, never as a fast one. run.py builds this binary
// and is the usual way to run it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

using namespace mobidist;

namespace {

using perfbench::Metrics;
using perfbench::metric_or_zero;
using Clock = std::chrono::steady_clock;
using Samples = std::map<std::string, std::vector<double>, std::less<>>;
/// One traced run's spans and the outside timer's total around the call.
struct Trace {
  std::vector<perfbench::Span> spans;
  double total_s = 0.0;
};

/// A run makes at least this many iterations, so every time it reports
/// is a median of at least three samples.
constexpr std::size_t kMinIterations = 3;
/// Cap for tiny inputs, whose iterations take milliseconds.
constexpr std::size_t kMaxIterations = 500;
/// Share of an untraced iteration spent on set-up passes, and the most
/// passes one iteration makes.
constexpr double kSetupShare = 0.2;
constexpr std::size_t kMaxSetupPasses = 64;
/// A traced run's layer spans must sum to within this share of its total.
constexpr double kSpanTolerance = 0.05;
constexpr std::size_t kMaxErrorsKept = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  perfbench::Size size = perfbench::Size::kFull;
  std::optional<std::uint32_t> shards;  ///< overrides the workload's shard count
  std::string record;                   ///< where the full record goes; "" = nowhere
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                 [--size full|tiny] [--shards K] [--record FILE]\n"
            << "                 [--git-sha SHA]\n"
            << "       perfbench --list\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const auto& workload : perfbench::workloads()) std::cout << workload.name << "\n";
      std::exit(0);
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed" && value.find('-') == std::string::npos) {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value);
      } else if (arg == "--size" && (value == "full" || value == "tiny")) {
        opt.size = value == "full" ? perfbench::Size::kFull : perfbench::Size::kTiny;
      } else if (arg == "--shards") {
        opt.shards = static_cast<std::uint32_t>(std::stoul(value));
      } else if (arg == "--record") {
        opt.record = value;
      } else if (arg == "--git-sha") {
        opt.git_sha = value;
      } else {
        usage("bad argument " + arg + " " + value);
      }
    } catch (const std::logic_error&) {  // std::sto* on a malformed number
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (perfbench::find_workload(opt.workload) == nullptr) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.trace != 0 && opt.trace != 1) usage("--trace must be 0 or 1");
  return opt;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double median_of(const Samples& samples, std::string_view key) {
  const auto it = samples.find(key);
  return it == samples.end() ? 0.0 : median(it->second);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string number(double value) { return exp::json::format_double(value); }

std::string quote(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Events the trace checkers were handed: what the telemetry rings still
/// held when they ran.
double events_checked(const Metrics& metrics) {
  return metric_or_zero(metrics, "events.emitted") - metric_or_zero(metrics, "events.dropped");
}

/// Threads the simulation runs on: one per shard, where one shard and the
/// legacy engine run on the calling thread.
std::uint32_t threads_of(const net::NetConfig& cfg) {
  return cfg.shards <= 1 ? 1 : std::min(cfg.shards, cfg.num_mss);
}

/// Tallies attempted and failed runs. A run passes when nothing went
/// wrong before it was judged, it did not stop at the event limit, the
/// workload's invariants hold, and every count it shares with the first
/// passing run is identical: one seed, one input, one result.
class Verdict {
 public:
  explicit Verdict(const perfbench::Workload& workload) : workload_(workload) {}

  /// Count and judge one run; `problems` lists what already went wrong
  /// (checker violations, exceptions). True when the run passed.
  bool judge(const exp::ScenarioSpec& spec, const Metrics& metrics,
             std::vector<std::string> problems) {
    ++attempted_;
    if (problems.empty()) {
      if (metric_or_zero(metrics, "sched.hit_event_limit") != 0.0) {
        problems.emplace_back("the run stopped at the scheduler's event limit");
      }
      for (auto& violation : workload_.check(spec, metrics)) {
        problems.push_back(std::move(violation));
      }
    }
    if (problems.empty() && reference_) {
      for (const auto& [key, value] : metrics) {
        const auto it = reference_->find(key);
        if (it != reference_->end() && it->second != value &&
            !(std::isnan(it->second) && std::isnan(value))) {
          problems.push_back(key + " = " + number(value) + ", but the first run had " +
                             number(it->second));
        }
      }
    }
    if (problems.empty()) {
      if (!reference_) reference_ = metrics;
      return true;
    }
    ++failed_;
    for (auto& problem : problems) {
      if (errors_.size() < kMaxErrorsKept) errors_.push_back(std::move(problem));
    }
    return false;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return attempted_ > 0 && failed_ == 0; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }
  /// The first passing run's metrics; empty until one passed.
  [[nodiscard]] Metrics reference() const { return reference_.value_or(Metrics{}); }

 private:
  const perfbench::Workload& workload_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::optional<Metrics> reference_;
};

/// Make one traced run, timed from outside the call the way total_s
/// times exp::run_scenario. Judge it; keep its spans, and its samples when
/// it passed. The span gate catches time the traced call spends outside
/// every layer span.
void record_traced(const exp::ScenarioSpec& spec, Verdict& verdict, Samples& samples,
                   std::vector<Trace>& traces) {
  const auto begin = Clock::now();
  auto traced = perfbench::run_traced(spec);
  const double total = seconds_since(begin);
  double layers = 0.0;
  for (const auto& span : traced.spans) layers += span.seconds();
  const double coverage = ratio(layers, total);
  auto problems = std::move(traced.failures);
  if (std::abs(coverage - 1.0) > kSpanTolerance) {
    problems.push_back("the layer spans sum to " + number(coverage) + " of the traced total");
  }
  if (verdict.judge(spec, traced.metrics, std::move(problems))) {
    samples["trace.total_s"].push_back(total);
    samples["trace.span_sum_ratio"].push_back(coverage);
    for (const auto& span : traced.spans) {
      samples[std::string(span.name)].push_back(span.seconds());
    }
    samples["sim.ns_per_event"].push_back(
        ratio(samples["sim.run_s"].back() * 1e9, metric_or_zero(traced.metrics, "sched.fired")));
  }
  traces.push_back({std::move(traced.spans), total});
}

struct Reported {
  std::string name;
  double value = 0.0;
  std::string_view unit;
};

std::vector<Reported> end_to_end(const Samples& samples, const Metrics& counts) {
  const double emitted = metric_or_zero(counts, "events.emitted");
  return {
      {"events_per_s", median_of(samples, "events_per_s"), "events/s"},
      {"total_s", median_of(samples, "total_s"), "s"},
      {"setup_s", median_of(samples, "setup_s"), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"check_coverage", emitted == 0.0 ? 1.0 : events_checked(counts) / emitted, "ratio"},
  };
}

std::vector<Reported> per_layer(const Samples& samples, const Metrics& counts) {
  std::vector<Reported> out;
  for (const auto name : perfbench::layer_span_names()) {
    out.push_back({std::string(name), median_of(samples, name), "s"});
  }
  const auto count = [&counts](std::string_view key) { return metric_or_zero(counts, key); };
  const double wired = count("ledger.fixed_msgs");
  const double wireless = count("ledger.wireless_msgs");
  const double grants = count("workload.grants");
  const std::vector<Reported> rest = {
      {"sim.ns_per_event", median_of(samples, "sim.ns_per_event"), "ns"},
      {"sim.events_fired", count("sched.fired"), "count"},
      {"net.wireless_msgs", wireless, "count"},
      {"net.retransmissions", count("net.retransmissions"), "count"},
      {"fault.injected_loss", count("fault.injected_loss"), "count"},
      {"fault.retransmit_ratio",
       ratio(count("net.retransmissions"), count("fault.injected_loss")), "ratio"},
      {"net.wired_msgs", wired, "count"},
      {"net.wired_packets", count("ledger.wired_packets"), "count"},
      {"net.formation.msgs_per_packet", ratio(wired, count("ledger.wired_packets")),
       "msgs/packet"},
      {"net.searches", count("ledger.searches"), "count"},
      {"net.handoffs", count("net.handoffs"), "count"},
      {"mobility.moves", count("workload.mob.moves"), "count"},
      {"mutex.grants", grants, "count"},
      {"mutex.wired_msgs_per_grant", ratio(wired, grants), "msgs/grant"},
      {"obs.events_emitted", count("events.emitted"), "count"},
      {"obs.events_dropped", count("events.dropped"), "count"},
      {"obs.events_checked", events_checked(counts), "count"},
      {"trace.overhead_s", median_of(samples, "trace.total_s") - median_of(samples, "total_s"),
       "s"},
      {"trace.span_sum_ratio", median_of(samples, "trace.span_sum_ratio"), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string metrics_json(const std::vector<Reported>& metrics) {
  std::string out = "{";
  for (const auto& metric : metrics) {
    if (out.size() > 1) out += ',';
    out += quote(metric.name) + ":{\"value\":" + number(metric.value) +
           ",\"unit\":" + quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string counts_json(const Metrics& counts) {
  std::string out = "{";
  for (const auto& [key, value] : counts) {
    if (out.size() > 1) out += ',';
    out += quote(key) + ":" + number(value);
  }
  return out + "}";
}

/// The run in full: provenance, result, errors, every sample and span.
void write_record(const std::string& path, const std::string& provenance,
                  const std::string& result, const std::vector<std::string>& errors,
                  const Samples& samples, const std::vector<Trace>& traces) {
  std::string out = "{\"provenance\":" + provenance + ",\"result\":" + result + ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i == 0 ? "" : ",") + quote(errors[i]);
  }
  out += "],\"samples\":{";
  for (auto it = samples.begin(); it != samples.end(); ++it) {
    out += (it == samples.begin() ? "" : ",") + quote(it->first) + ":[";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      out += (i == 0 ? "" : ",") + number(it->second[i]);
    }
    out += ']';
  }
  out += "},\"traces\":[";
  for (std::size_t t = 0; t < traces.size(); ++t) {
    out += (t == 0 ? "" : ",") + std::string("{\"total_s\":") + number(traces[t].total_s) +
           ",\"spans\":[";
    for (std::size_t i = 0; i < traces[t].spans.size(); ++i) {
      const auto& span = traces[t].spans[i];
      out += (i == 0 ? "" : ",") + std::string("{\"name\":") + quote(span.name) +
             ",\"begin_s\":" + number(span.begin_s) + ",\"end_s\":" + number(span.end_s) + "}";
    }
    out += "]}";
  }
  out += "]}\n";
  std::ofstream file(path);
  file << out;
  if (!file) std::cerr << "perfbench: cannot write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto& workload = *perfbench::find_workload(opt.workload);

  exp::RunPlan plan;
  plan.spec = workload.spec(opt.seed, opt.size);
  if (opt.shards) plan.spec.net.shards = *opt.shards;
  plan.cell = std::string(workload.name);
  plan.seed = opt.seed;

  perfbench::SpecCapture capture;
  Verdict verdict(workload);
  Samples samples;
  std::vector<Trace> traces;
  std::vector<double> iterations;
  const auto begin = Clock::now();

  while (iterations.size() < kMaxIterations) {
    const auto iteration_begin = Clock::now();
    const auto result = exp::run_scenario(plan, capture.library());
    const double total = seconds_since(iteration_begin);
    // Set-up passes and traced runs use the spec exactly as the runner
    // resolved it, engine choice included.
    const exp::ScenarioSpec spec = capture.spec().value_or(plan.spec);
    std::vector<std::string> problems;
    if (!result.ok) problems.push_back(result.error);
    if (verdict.judge(spec, result.metrics, std::move(problems))) {
      samples["total_s"].push_back(total);
      samples["events_per_s"].push_back(
          ratio(metric_or_zero(result.metrics, "sched.fired"), result.wall_sec));
    }
    try {
      if (opt.trace == 0) {
        // Set-up passes take kSetupShare of each iteration, so they
        // sample the host over the whole run, as the calls do.
        const double until = total * kSetupShare / (1.0 - kSetupShare);
        const auto passes_begin = Clock::now();
        for (std::size_t pass = 0; pass < kMaxSetupPasses; ++pass) {
          samples["setup_s"].push_back(perfbench::time_setup(spec));
          if (seconds_since(passes_begin) > until) break;
        }
      } else {
        record_traced(spec, verdict, samples, traces);
      }
    } catch (const std::exception& err) {
      verdict.judge(spec, {}, {std::string("set-up or traced run threw: ") + err.what()});
    }
    iterations.push_back(seconds_since(iteration_begin));
    if (iterations.size() >= kMinIterations &&
        seconds_since(begin) + median(iterations) > opt.seconds) {
      break;
    }
  }

  const Metrics counts = verdict.reference();
  const auto metrics = opt.trace == 0 ? end_to_end(samples, counts) : per_layer(samples, counts);
  const double elapsed = seconds_since(begin);
  const auto effective = capture.spec().value_or(plan.spec).net;

  std::cout << "perfbench: " << workload.name << ", seed " << opt.seed << ", "
            << (opt.trace == 0 ? "untraced" : "traced") << ", " << iterations.size()
            << " iterations in " << number(elapsed) << " s\n";
  for (const auto& metric : metrics) {
    std::cout << "  " << std::left << std::setw(32) << metric.name << std::right
              << std::setw(24) << number(metric.value) << " " << metric.unit << "\n";
  }
  for (const auto& error : verdict.errors()) std::cerr << "perfbench: FAILED: " << error << "\n";

  const std::string provenance =
      "{\"workload\":" + quote(workload.name) + ",\"seed\":" + std::to_string(opt.seed) +
      ",\"size\":" + quote(opt.size == perfbench::Size::kFull ? "full" : "tiny") +
      ",\"trace\":" + std::to_string(opt.trace) + ",\"git_sha\":" + quote(opt.git_sha) +
      ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"shards\":" + std::to_string(effective.shards) +
      ",\"threads\":" + std::to_string(threads_of(effective)) +
      ",\"events_emitted\":" + number(metric_or_zero(counts, "events.emitted")) +
      ",\"events_dropped\":" + number(metric_or_zero(counts, "events.dropped")) +
      ",\"iterations\":" + std::to_string(iterations.size()) +
      ",\"setup_passes\":" + std::to_string(samples["setup_s"].size()) +
      ",\"elapsed_s\":" + number(elapsed) + ",\"compiler\":" + quote(__VERSION__) + "}";
  const std::string result = std::string("{\"correct\":") +
                             (verdict.correct() ? "true" : "false") +
                             ",\"attempted\":" + std::to_string(verdict.attempted()) +
                             ",\"failed\":" + std::to_string(verdict.failed()) +
                             ",\"metrics\":" + metrics_json(metrics) + "}";
  std::cout << "provenance " << provenance << "\n"
            << "counts " << counts_json(counts) << "\n";
  if (!opt.record.empty()) {
    write_record(opt.record, provenance, result, verdict.errors(), samples, traces);
  }
  std::cout << result << std::endl;
  return 0;
}
