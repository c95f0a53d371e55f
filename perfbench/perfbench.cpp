// The repository benchmark: two workloads over the readout library's
// public calls, one JSON result line, and a traced run for per-layer
// numbers. perfbench/README.md documents every workload and metric.
//
//   perfbench --workload batch_offline|qec_stream --seed N
//             --seconds S --trace 0|1 [--trace-file PATH] [--git-sha SHA]
//   perfbench --list-metrics
//
// Every input (dataset, frame order, arrival schedule) is generated from
// --seed before timing starts. Worker counts are fixed by the benchmark,
// never taken from the caller's MLQR_THREADS.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "discrim/metrics.h"
#include "discrim/proposed.h"
#include "discrim/quantized8_proposed.h"
#include "discrim/quantized_proposed.h"
#include "mf/mf_bank.h"
#include "nn/normalizer.h"
#include "nn/trainer.h"
#include "pipeline/readout_engine.h"
#include "pipeline/snapshot.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace mlqr;
using perfbench::Metric;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ constants ----

/// Table-bench sizing: 400 shots per basis state (12.8k shots, 30% train).
/// The simulated calibration dataset keeps DatasetConfig's default seed, so
/// it is full-scale table4_fidelity's dataset and F5Q is an exact check;
/// --seed drives what the benchmark feeds the program (batch composition,
/// arrival times, feedline keys, frame picks).
constexpr std::size_t kShotsPerState = 400;
constexpr std::size_t kBatch = 1024;
constexpr double kLoRate = 20000.0;   ///< qec_stream `lo`, shots/s.
constexpr double kHiRate = 100000.0;  ///< qec_stream `hi`, shots/s.
constexpr std::size_t kShards = 2;    ///< Two feedlines.
/// The unpaced phase stops early past this many shots/s of its length.
constexpr double kMaxRateCap = 600000.0;
constexpr int kSetupRepeats = 3;
/// Gated timings are taken per window and reduced with
/// perfbench::least_disturbed: batch_offline windows of this many rounds
/// (about 2 s; ten rounds beyond a window's p90), qec_stream slices of
/// kSliceS seconds (1000 shots at kLoRate). Short slices leave more of
/// them untouched when the host steals CPU time often.
constexpr std::size_t kRoundsPerWindow = 100;
constexpr double kSliceS = 0.05;
/// Which of the least-stolen windows' figures is reported: the tenth
/// quietest for a time, which holds while a host that steals in nearly
/// every window still leaves a few alone; the upper quartile for the `max`
/// rate, whose slices recover from a stolen moment on their own and
/// spread more at the extreme.
constexpr double kQuietTime = 0.1;
constexpr double kQuietRate = 0.75;
/// Streaming shots get submit and wait spans for one ticket in this many,
/// which keeps a traced run's span file small.
constexpr std::size_t kSpanEvery = 16;
constexpr const char* kDatapaths[] = {"float", "int16", "int8"};

// ------------------------------------------------------------- metrics ----

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

// The names and units BENCHMARK.json lists (test_bench.py keeps them in
// step). End-to-end metrics come from the untraced run, per-layer ones
// from the traced run.
const MetricDef kMetricDefs[] = {
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"f5q", "ratio", false},
    {"shots_per_s", "1/s", false},
    {"p50_us", "us", false},
    {"tail_us", "us", false},
    {"readout.dataset_s", "s", true},
    {"discrim.proposed_train_s", "s", true},
    {"mf.bank_train_s", "s", true},
    {"mf.cross_fit_s", "s", true},
    {"nn.trainer.heads_s", "s", true},
    {"nn.trainer.epoch_ms", "ms", true},
    {"discrim.quantize.int16_s", "s", true},
    {"discrim.quantize.int8_s", "s", true},
    {"snapshot.roundtrip_ms", "ms", true},
    {"snapshot.bytes", "bytes", true},
    {"dsp.float.ns_per_shot", "ns", true},
    {"dsp.int16.ns_per_shot", "ns", true},
    {"dsp.int8.ns_per_shot", "ns", true},
    {"nn.head.float.ns_per_shot", "ns", true},
    {"nn.head.int16.ns_per_shot", "ns", true},
    {"nn.head.int8.ns_per_shot", "ns", true},
    {"discrim.float.ns_per_shot", "ns", true},
    {"discrim.int16.ns_per_shot", "ns", true},
    {"discrim.int8.ns_per_shot", "ns", true},
    {"engine.float.overhead_ns_per_shot", "ns", true},
    {"engine.int16.overhead_ns_per_shot", "ns", true},
    {"engine.int8.overhead_ns_per_shot", "ns", true},
    {"engine.float.w1_shots_per_s", "1/s", true},
    {"engine.int16.w1_shots_per_s", "1/s", true},
    {"engine.int8.w1_shots_per_s", "1/s", true},
    {"engine.float.scaling", "x", true},
    {"engine.int16.scaling", "x", true},
    {"engine.int8.scaling", "x", true},
    {"pool.dispatch_us", "us", true},
    {"streaming.lo.batch_mean", "shots", true},
    {"streaming.hi.batch_mean", "shots", true},
    {"streaming.max.batch_mean", "shots", true},
    {"streaming.lo.submit_us.p99", "us", true},
    {"streaming.hi.submit_us.p99", "us", true},
    {"streaming.lo.backlog_max", "shots", true},
    {"streaming.hi.backlog_max", "shots", true},
    {"streaming.lo.gen_lag_us.p99", "us", true},
    {"streaming.hi.gen_lag_us.p99", "us", true},
    {"streaming.lo.p50_us", "us", true},
    {"streaming.lo.p99_us", "us", true},
    {"streaming.hi.p50_us", "us", true},
    {"streaming.hi.p99_us", "us", true},
    {"streaming.max.shots_per_s", "1/s", true},
    {"streaming.max.sync_ratio", "x", true},
    {"trace.overhead_frac", "ratio", true},
    {"trace.spans", "count", true},
};

/// Builds the metrics object for one kind, refusing a missing value.
std::map<std::string, Metric> select_metrics(
    const std::map<std::string, double>& values, bool per_layer) {
  std::map<std::string, Metric> out;
  for (const MetricDef& d : kMetricDefs) {
    if (d.per_layer != per_layer) continue;
    const auto it = values.find(d.name);
    if (it == values.end())
      throw std::runtime_error(std::string("metric not measured: ") + d.name);
    out[d.name] = Metric{it->second, d.unit};
  }
  return out;
}

/// A workload-specific figure printed for people (not part of the result).
void detail(const std::string& name, double value, const std::string& unit) {
  std::cout << "detail " << name << ' ' << perfbench::json_number(value) << ' '
            << unit << '\n';
}

// ------------------------------------------------------------- helpers ----

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// only on --seed, never on the library's RNG.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() {  // (0, 1]
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Spin-loop hint. It keeps a spinning producer from starving a
/// hyperthread sibling that may be running the engine; without it the
/// qec_stream figures spread visibly wider from run to run.
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits for `due`: sleeps while far away, spins for the last stretch.
void wait_until(Clock::time_point due) {
  using std::chrono::microseconds;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= due) return;
    const Clock::duration left = due - now;
    if (left > microseconds(200))
      std::this_thread::sleep_for(left - microseconds(150));
    else
      cpu_relax();
  }
}

/// Cumulative steal time of the machine, in 1/100 s ticks summed over its
/// CPUs: time the hypervisor ran something else while a vCPU of this
/// machine was ready to run. 0 where /proc/stat has no steal column.
double steal_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  double field[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  is >> cpu;
  for (double& f : field) is >> f;
  return is && cpu == "cpu" ? field[7] : 0.0;
}

/// Samples steal_ticks() every 20 ms from construction to stop(), so a
/// measurement window can be matched with the CPU time the host took from
/// this machine during it. The thread sleeps between samples.
class StealMonitor {
 public:
  StealMonitor() : thread_([this](std::stop_token stop) { sample(stop); }) {}

  void stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  /// Steal ticks between a and b, interpolated between samples; valid
  /// after stop().
  double ticks(Clock::time_point a, Clock::time_point b) const {
    return at(b) - at(a);
  }

  /// Share of the machine's CPU time stolen over the whole sampling.
  double share() const {
    if (samples_.size() < 2) return 0.0;
    const double wall = std::chrono::duration<double>(samples_.back().first -
                                                      samples_.front().first)
                            .count();
    const double cpus = std::max(1u, std::thread::hardware_concurrency());
    return (samples_.back().second - samples_.front().second) / 100.0 /
           (cpus * std::max(wall, 1e-9));
  }

 private:
  void sample(std::stop_token stop) {
    while (!stop.stop_requested()) {
      samples_.emplace_back(Clock::now(), steal_ticks());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    samples_.emplace_back(Clock::now(), steal_ticks());
  }

  double at(Clock::time_point t) const {
    if (samples_.empty()) return 0.0;
    if (t <= samples_.front().first) return samples_.front().second;
    if (t >= samples_.back().first) return samples_.back().second;
    const auto hi = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const auto& s, Clock::time_point x) { return s.first < x; });
    const auto lo = hi - 1;
    const double f = std::chrono::duration<double>(t - lo->first).count() /
                     std::chrono::duration<double>(hi->first - lo->first).count();
    return lo->second + f * (hi->second - lo->second);
  }

  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::jthread thread_;  ///< Last member: stops before the samples die.
};

// ------------------------------------------------------------- context ----

std::size_t affinity_cpus(std::string* mask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  std::ostringstream os;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) os << (os.tellp() > 0 ? "," : "") << c;
  if (mask) *mask = os.str();
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Real cores available: n spinners for `seconds`, total thread CPU time
/// divided by wall time. The spin has no pause hint: on a virtual machine a
/// pause loop lets the hypervisor deschedule the vCPU, hiding capacity.
double spin_probe_cores(std::size_t n, double seconds) {
  std::vector<double> cpu(n, 0.0);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> spinners;
    for (std::size_t k = 0; k < n; ++k)
      spinners.emplace_back([&, k] {
        while (seconds_since(start) < seconds) {
        }
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        cpu[k] = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
      });
  }
  const double wall = seconds_since(start);
  double total = 0.0;
  for (double c : cpu) total += c;
  return total / wall;
}

std::string read_first_line(const char* path) {
  std::ifstream is(path);
  std::string line;
  if (!is || !std::getline(is, line)) return "";
  return line;
}

/// The CPU quota: cgroup v2 cpu.max, else v1 "quota period".
std::string cgroup_cpu_max() {
  std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return v2;
  const std::string quota = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (quota.empty()) return "unavailable";
  return (quota == "-1" ? std::string("max") : quota) + " " + period;
}

bool sanitized_build() {
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool optimized_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release" ||
         std::string(PERFBENCH_BUILD_TYPE) == "RelWithDebInfo";
#else
  return false;
#endif
}

// -------------------------------------------------------------- inputs ----

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string git_sha = "unknown";
  bool list_metrics = false;
};

/// Everything a serving workload runs on: the dataset, the held-out frame
/// pool in seeded order, the trained backends, and the per-shot
/// classify_into reference labels every served label is checked against.
struct Served {
  ReadoutDataset ds;
  std::vector<std::size_t> pool;    ///< Test-split shot indices, shuffled.
  std::vector<BackendSnapshot> dp;  ///< float [, int16, int8].
  /// Per datapath: pool.size() x n_qubits labels from per-shot
  /// classify_into, in pool order.
  std::vector<std::vector<int>> ref;
  std::vector<double> f5q;  ///< Per datapath, over the pool.
  double snapshot_bytes = 0.0;
  bool roundtrip_identical = true;  ///< save -> load -> save gave the same bytes.

  std::size_t nq() const { return ds.chip.num_qubits(); }
  const IqTrace& frame(std::size_t pos) const {
    return ds.shots.traces[pool[pos]];
  }
};

ReadoutDataset make_dataset(Tracer& tr) {
  ScopedSpan span(tr, "readout.dataset");
  DatasetConfig cfg;
  cfg.shots_per_basis_state = kShotsPerState;
  return generate_dataset(cfg);
}

ProposedConfig proposed_config(std::size_t workers) {
  ProposedConfig cfg;
  cfg.trainer.threads = workers;
  return cfg;
}

/// F5Q of labels (n x nq, in `idx` order) against the ground truth.
double f5q_of(const ShotSet& shots, std::span<const std::size_t> idx,
              std::span<const int> labels) {
  FidelityReport r;
  r.per_qubit.resize(shots.n_qubits);
  for (std::size_t s = 0; s < idx.size(); ++s)
    for (std::size_t q = 0; q < shots.n_qubits; ++q)
      r.per_qubit[q].add(shots.label(idx[s], q), labels[s * shots.n_qubits + q]);
  return r.geometric_mean_fidelity();
}

/// Per-shot classify_into labels for every shot of `idx` (the reference
/// the served labels must equal), computed on `workers` threads.
std::vector<int> reference_labels(const EngineBackend& b, const ShotSet& shots,
                                  std::span<const std::size_t> idx,
                                  std::size_t workers) {
  const std::size_t nq = shots.n_qubits;
  std::vector<int> out(idx.size() * nq);
  std::vector<InferenceScratch> scratch(workers);
  parallel_for_slots(0, idx.size(), workers,
                     [&](std::size_t slot, std::size_t lo, std::size_t hi) {
                       for (std::size_t s = lo; s < hi; ++s)
                         b.classify_into(shots.traces[idx[s]], scratch[slot],
                                         {out.data() + s * nq, nq});
                     });
  return out;
}

Served setup_served(std::uint64_t seed, std::size_t n_datapaths,
                    std::size_t workers, Tracer& tr) {
  Served sv;
  sv.ds = make_dataset(tr);
  sv.pool = sv.ds.test_idx;
  SplitMix rng{seed ^ 0x5eedf00dULL};
  for (std::size_t i = sv.pool.size(); i > 1; --i)
    std::swap(sv.pool[i - 1], sv.pool[rng.below(i)]);

  const ReadoutDataset& ds = sv.ds;
  {
    ScopedSpan span(tr, "discrim.train");
    sv.dp.push_back(BackendSnapshot::wrap(ProposedDiscriminator::train(
        ds.shots, ds.training_labels, ds.train_idx, ds.chip,
        proposed_config(workers))));
  }
  const auto& fl = *sv.dp[0].as<ProposedDiscriminator>();
  if (n_datapaths > 1) {
    ScopedSpan span(tr, "discrim.quantize.int16");
    sv.dp.push_back(BackendSnapshot::wrap(
        QuantizedProposedDiscriminator::quantize(fl, ds.shots, ds.train_idx)));
  }
  if (n_datapaths > 2) {
    ScopedSpan span(tr, "discrim.quantize.int8");
    sv.dp.push_back(BackendSnapshot::wrap(
        Quantized8ProposedDiscriminator::quantize(fl, ds.shots, ds.train_idx)));
  }
  // Serve what a deployment loads: every backend goes through save ->
  // load, and saving the loaded backend must give the same bytes again.
  for (BackendSnapshot& snap : sv.dp) {
    ScopedSpan span(tr, "snapshot.deploy");
    std::ostringstream os;
    snap.save(os);
    const std::string bytes = os.str();
    std::istringstream is(bytes);
    BackendSnapshot loaded = load_backend(is);
    std::ostringstream again;
    loaded.save(again);
    sv.roundtrip_identical &= again.str() == bytes;
    sv.snapshot_bytes += static_cast<double>(bytes.size());
    snap = std::move(loaded);
  }
  for (std::size_t d = 0; d < sv.dp.size(); ++d) {
    ScopedSpan span(tr, std::string("discrim.reference.") + kDatapaths[d]);
    sv.ref.push_back(
        reference_labels(sv.dp[d].backend(), ds.shots, sv.pool, workers));
    sv.f5q.push_back(f5q_of(ds.shots, sv.pool, sv.ref.back()));
  }
  return sv;
}

/// Shots (not labels) that differ: any mismatching qubit fails the shot.
std::uint64_t shot_mismatches(std::span<const int> got, std::span<const int> want,
                              std::size_t nq) {
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s * nq < got.size(); ++s)
    bad += !std::equal(got.begin() + s * nq, got.begin() + (s + 1) * nq,
                       want.begin() + s * nq);
  return bad;
}

// ------------------------------------------------------- batch_offline ----

struct BatchRun {
  std::vector<double> round_us;   ///< One 1024-shot batch per datapath.
  std::vector<Clock::time_point> round_start;
  std::vector<double> dp_us[3];   ///< Per datapath, per batch.
  std::uint64_t shots = 0;
  std::uint64_t failed = 0;
};

BatchRun run_batch_offline(const Served& sv, std::size_t workers,
                           double seconds, Tracer& tr) {
  EngineConfig cfg;
  cfg.threads = workers;
  std::vector<ReadoutEngine> engines;
  for (const BackendSnapshot& s : sv.dp) engines.emplace_back(s.backend(), cfg);
  const std::size_t nq = sv.nq();
  const std::size_t windows = sv.pool.size() / kBatch;
  BatchRun run;
  const auto batch_at = [&](std::size_t r) {
    return std::span<const std::size_t>(sv.pool.data() + (r % windows) * kBatch,
                                        kBatch);
  };
  for (std::size_t r = 0; r < 2; ++r)  // Warm-up: scratch growth, pool start.
    for (ReadoutEngine& e : engines) e.process_batch(sv.ds.shots, batch_at(r));

  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0; seconds_since(start) < seconds; ++r) {
    ScopedSpan round(tr, "batch.round", r, kBatch * engines.size());
    run.round_start.push_back(Clock::now());
    double round_us = 0.0;
    for (std::size_t d = 0; d < engines.size(); ++d) {
      const Clock::time_point t0 = Clock::now();
      const EngineBatch b = engines[d].process_batch(sv.ds.shots, batch_at(r));
      const Clock::time_point t1 = Clock::now();
      tr.record(std::string("batch.process_batch.") + kDatapaths[d], t0, t1, r,
                kBatch);
      const double us = micros(t1 - t0);
      run.dp_us[d].push_back(us);
      round_us += us;
      const std::size_t off = (r % windows) * kBatch * nq;
      run.failed += shot_mismatches(
          b.labels, {sv.ref[d].data() + off, kBatch * nq}, nq);
      run.shots += kBatch;
    }
    run.round_us.push_back(round_us);
  }
  return run;
}

// ---------------------------------------------------------- qec_stream ----

/// A precomputed open-loop arrival schedule: due offsets (empty for an
/// unpaced phase), and the frame and feedline key of every shot.
struct Schedule {
  std::vector<std::int64_t> due_ns;
  std::vector<std::uint32_t> frame;
  std::vector<std::uint8_t> key;
};

Schedule make_schedule(double rate, double seconds, std::size_t capacity,
                       std::size_t pool, std::uint64_t seed) {
  Schedule s;
  SplitMix rng{seed};
  if (rate > 0.0) {
    double t = 0.0;
    for (;;) {
      t += -std::log(rng.uniform()) / rate;  // Poisson arrivals.
      if (t >= seconds) break;
      s.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    capacity = s.due_ns.size();
  }
  s.frame.resize(capacity);
  s.key.resize(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    s.frame[i] = static_cast<std::uint32_t>(rng.below(pool));
    s.key[i] = static_cast<std::uint8_t>(rng.below(kShards));
  }
  return s;
}

struct PhaseRun {
  std::vector<double> latency_us;  ///< Due -> wait returned; inf if not done.
  std::vector<double> submit_us;
  std::vector<double> gen_lag_us;
  Clock::time_point t0;        ///< Phase start: the schedule's time zero.
  std::vector<double> done_s;  ///< Completion time since t0.
  std::vector<std::pair<double, double>> backlog;  ///< (s, shots) samples.
  double backlog_max = 0.0;
  std::uint64_t shots = 0;
  std::uint64_t failed = 0;  ///< Not done, or labels off the reference.
  std::uint64_t batches = 0;
  double wall_s = 0.0;
};

/// One open-loop phase: a producer thread submits on the schedule (or as
/// fast as the ring admits when unpaced, for `seconds`), this thread
/// consumes tickets in order. Latency runs from each shot's due time.
PhaseRun run_phase(const Served& sv, std::size_t workers, const Schedule& sch,
                   double seconds, Tracer& tr) {
  const bool paced = !sch.due_ns.empty();
  const std::size_t cap = sch.frame.size();
  StreamingConfig cfg;
  cfg.engine.threads = workers;
  StreamingEngine engine(sv.dp[0].backend(), kShards, cfg);
  const std::size_t nq = sv.nq();

  PhaseRun run;
  // Every per-shot vector is sized (and its pages touched) up front, so
  // peak RSS does not depend on how many shots a phase got through.
  run.latency_us.assign(cap, 0.0);
  run.done_s.assign(cap, 0.0);
  run.submit_us.assign(cap, 0.0);
  run.gen_lag_us.assign(cap, 0.0);
  std::vector<Clock::time_point> due(cap);
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<bool> producer_done{false};
  std::exception_ptr producer_error;
  Tracer ptr(tr.enabled(), tr.epoch());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  run.t0 = t0;
  const auto limit = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));

  std::jthread producer([&] {
    try {
      for (std::size_t i = 0; i < cap; ++i) {
        if (paced) {
          due[i] = t0 + std::chrono::nanoseconds(sch.due_ns[i]);
          wait_until(due[i]);
        } else {
          due[i] = Clock::now();
          if (due[i] - t0 >= limit) break;
        }
        const Clock::time_point s0 = Clock::now();
        run.gen_lag_us[i] = micros(s0 - due[i]);
        engine.submit(sv.frame(sch.frame[i]), sch.key[i]);
        const Clock::time_point s1 = Clock::now();
        run.submit_us[i] = micros(s1 - s0);
        if (ptr.enabled() && i % kSpanEvery == 0)
          ptr.record("streaming.submit", s0, s1, i, 1);
        submitted.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    producer_done.store(true, std::memory_order_release);
  });

  const std::int64_t phase_span = tr.begin("streaming.phase", 0, 0);
  std::vector<int> out(nq);
  for (std::size_t i = 0; i < cap; ++i) {
    const Clock::time_point w0 = Clock::now();
    ShotStatus st;
    if (paced) {
      st = engine.wait_result(i, out);
    } else {
      for (;;) {
        st = engine.wait_for(i, out, std::chrono::milliseconds(1));
        if (st != ShotStatus::kTimedOut) break;
        if (producer_done.load(std::memory_order_acquire) &&
            submitted.load(std::memory_order_acquire) <= i)
          break;
      }
      if (st == ShotStatus::kTimedOut) break;
    }
    const Clock::time_point t = Clock::now();
    if (tr.enabled() && i % kSpanEvery == 0)
      tr.record("streaming.wait", w0, t, i, 1);
    const std::uint32_t f = sch.frame[i];
    const bool ok =
        st == ShotStatus::kDone &&
        std::equal(out.begin(), out.end(), sv.ref[0].begin() + f * nq);
    run.failed += !ok;
    run.latency_us[i] = ok ? micros(t - due[i])
                           : std::numeric_limits<double>::infinity();
    ++run.shots;
    const double ts = std::chrono::duration<double>(t - t0).count();
    run.done_s[i] = ts;
    // The producer counts a shot after submit returns, so the consumer can
    // briefly be one ahead of the count.
    const auto sent = static_cast<double>(submitted.load(std::memory_order_acquire));
    const double backlog = std::max(0.0, sent - static_cast<double>(i + 1));
    run.backlog_max = std::max(run.backlog_max, backlog);
    if (i % 64 == 0) run.backlog.emplace_back(ts, backlog);
  }
  producer.join();
  tr.end(phase_span);
  if (producer_error) std::rethrow_exception(producer_error);
  tr.merge(ptr, phase_span);
  run.latency_us.resize(run.shots);
  run.done_s.resize(run.shots);
  run.submit_us.resize(run.shots);
  run.gen_lag_us.resize(run.shots);
  run.batches = engine.stats().batches;
  run.wall_s = run.done_s.empty() ? 0.0 : run.done_s.back();
  return run;
}

/// A slice of a phase by completion time, and the latencies of the shots
/// completed in it.
struct Slice {
  Clock::time_point start;
  double seconds = 0.0;
  std::vector<double> latency_us;
  double rate() const { return static_cast<double>(latency_us.size()) / seconds; }
};

/// Splits a phase into whole kSliceS slices from its first completion on;
/// a phase shorter than that is one slice.
std::vector<Slice> slices(const PhaseRun& run) {
  if (run.done_s.empty()) return {};
  const double first = run.done_s.front();
  const double span = run.done_s.back() - first;
  const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(span / kSliceS));
  std::vector<Slice> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k].start = run.t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(first + k * kSliceS));
    out[k].seconds = span < kSliceS ? std::max(span, 1e-9) : kSliceS;
  }
  for (std::size_t i = 0; i < run.done_s.size(); ++i) {
    const auto k = static_cast<std::size_t>((run.done_s[i] - first) / kSliceS);
    if (k < n) out[k].latency_us.push_back(run.latency_us[i]);
  }
  return out;
}

/// Delivered shots/s: median over the phase's slices.
double delivered_rate(const PhaseRun& run) {
  std::vector<double> rates;
  for (const Slice& s : slices(run)) rates.push_back(s.rate());
  return rates.empty() ? 0.0 : perfbench::median(rates);
}

double p99(const std::vector<double>& v) {
  return v.empty() ? 0.0 : perfbench::quantile(v, 0.99);
}

// --------------------------------------------------------- layer sweep ----

/// Median per-item nanoseconds of every span named `name`.
double median_ns_per_item(const Tracer& tr, const std::string& name) {
  std::vector<double> v;
  for (const Tracer::Span& s : tr.spans())
    if (tr.names()[s.name] == name && s.items > 0)
      v.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                  static_cast<double>(s.items));
  if (v.empty()) throw std::runtime_error("no spans named " + name);
  return perfbench::median(v);
}

double median_span_s(const Tracer& tr, const std::string& name) {
  std::vector<double> v;
  for (const Tracer::Span& s : tr.spans())
    if (tr.names()[s.name] == name)
      v.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
  if (v.empty()) throw std::runtime_error("no spans named " + name);
  return perfbench::median(v);
}

/// Repeats body(rep) until `seconds` have passed (at least `min_reps`).
void repeat_for(double seconds, std::size_t min_reps,
                const std::function<void(std::size_t)>& body) {
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0; rep < min_reps || seconds_since(start) < seconds;
       ++rep)
    body(rep);
}

/// The training steps of ProposedDiscriminator::train, one layer call at a
/// time (demodulate, per-qubit matched-filter bank, cross-fitted features,
/// per-qubit head training), so each layer gets its own span.
void trace_training_layers(const ReadoutDataset& ds, std::size_t workers,
                           Tracer& tr) {
  ScopedSpan parent(tr, "replica.train");
  const ProposedConfig pcfg = proposed_config(workers);
  const Demodulator demod(ds.chip);
  const std::size_t n_samples = ds.chip.window_samples(pcfg.duration_ns);
  const std::size_t nq = ds.shots.n_qubits;
  const std::size_t per_q = pcfg.mf.filters_per_qubit();
  const std::size_t feat_dim = per_q * nq;
  const std::size_t n_train = ds.train_idx.size();
  std::vector<float> features(n_train * feat_dim);
  std::vector<std::vector<int>> labels(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    std::vector<BasebandTrace> baseband;
    {
      ScopedSpan s(tr, "dsp.demodulate", q, n_train);
      baseband = demodulate_subset(ds.shots, ds.train_idx, demod, q, n_samples);
    }
    for (std::size_t i = 0; i < n_train; ++i)
      labels[q].push_back(ds.training_labels[ds.train_idx[i] * nq + q]);
    {
      ScopedSpan s(tr, "mf.bank_train", q, n_train);
      QubitMfBank::train(baseband, labels[q], n_samples, pcfg.mf);
    }
    std::vector<float> xfit;
    {
      ScopedSpan s(tr, "mf.cross_fit", q, n_train);
      xfit = cross_fit_features(baseband, labels[q], n_samples, pcfg.mf);
    }
    for (std::size_t i = 0; i < n_train; ++i)
      std::copy_n(xfit.begin() + static_cast<std::ptrdiff_t>(i * per_q), per_q,
                  features.begin() + static_cast<std::ptrdiff_t>(i * feat_dim + q * per_q));
  }
  FeatureNormalizer::fit(features, feat_dim).apply(features);
  const std::vector<std::size_t> sizes{feat_dim, std::max<std::size_t>(feat_dim / 2, 4),
                                       std::max<std::size_t>(feat_dim / 4, 4),
                                       static_cast<std::size_t>(kNumLevels)};
  Rng init(pcfg.trainer.seed);
  for (std::size_t q = 0; q < nq; ++q) {
    Mlp model(sizes);
    model.init_weights(init);
    TrainerConfig tcfg = pcfg.trainer;
    tcfg.seed = pcfg.trainer.seed + 1000 * (q + 1);
    tcfg.class_weights = inverse_frequency_weights(labels[q], kNumLevels);
    ScopedSpan s(tr, "nn.trainer", q, static_cast<std::uint64_t>(tcfg.epochs));
    train_classifier(model, features, labels[q], tcfg);
  }
}

/// Per datapath at one thread: the backend's batched classify (discrim),
/// the same batches through the front-end and head entry points tile by
/// tile (dsp, nn), and process_batch at one and at N workers (engine);
/// then an empty-body fan-out (pool). Every label is checked.
void trace_serving_layers(const Served& sv, std::size_t workers, Tracer& tr,
                          std::uint64_t& checked, std::uint64_t& failed) {
  constexpr double kStep = 1.0;       // Seconds per datapath.
  constexpr std::size_t kTile = 128;  // The backends' own batch tile.
  const std::size_t nq = sv.nq();
  const std::size_t windows = sv.pool.size() / kBatch;
  const auto& fl = *sv.dp[0].as<ProposedDiscriminator>();
  const auto& q16 = *sv.dp[1].as<QuantizedProposedDiscriminator>();
  const auto& q8 = *sv.dp[2].as<Quantized8ProposedDiscriminator>();
  const std::size_t feat_dim = fl.feature_dim();
  InferenceScratch scratch;
  std::vector<float> ffeat(kTile * feat_dim);
  std::vector<std::int32_t> ifeat(kTile * feat_dim);

  // Per-tile front-end then heads, exactly the order classify_batch_into
  // runs them.
  const auto tiles = [&](std::size_t d, const IqTrace* const* frames,
                         std::size_t tile, int* labels) {
    const std::string dp = kDatapaths[d];
    if (d == 0) {
      {
        ScopedSpan s(tr, "dsp." + dp, 0, tile);
        fl.fused_frontend().features_block_into(tile, frames, ffeat.data(),
                                                feat_dim);
      }
      ScopedSpan s(tr, "nn.head." + dp, 0, tile);
      for (std::size_t q = 0; q < nq; ++q)
        fl.qubit_model(q).classify_batch_into(tile, ffeat.data(),
                                              scratch.batch_act_a,
                                              scratch.batch_act_b, labels + q, nq);
      return;
    }
    const QuantizedFrontend& fe = d == 1 ? q16.frontend() : q8.frontend();
    {
      ScopedSpan s(tr, "dsp." + dp, 0, tile);
      fe.features_block_into(tile, frames, scratch, ifeat.data(), feat_dim);
    }
    ScopedSpan s(tr, "nn.head." + dp, 0, tile);
    for (std::size_t q = 0; q < nq; ++q) {
      if (d == 1)
        q16.head(q).classify_batch_into(tile, ifeat.data(),
                                        scratch.batch_i16_act_a,
                                        scratch.batch_i16_act_b,
                                        scratch.batch_i64_logits, labels + q, nq);
      else
        q8.head(q).classify_batch_into(tile, ifeat.data(), scratch.batch_u8_act_a,
                                       scratch.batch_u8_act_b,
                                       scratch.batch_i32_logits, labels + q, nq);
    }
  };

  for (std::size_t d = 0; d < 3; ++d) {
    const std::string dp = kDatapaths[d];
    const EngineBackend backend = sv.dp[d].backend();
    std::vector<int> labels(kBatch * nq);
    const auto window = [&](std::size_t rep) {
      return std::span<const std::size_t>(
          sv.pool.data() + (rep % windows) * kBatch, kBatch);
    };
    const auto check = [&](std::span<const int> got, std::size_t rep) {
      checked += kBatch;
      failed += shot_mismatches(
          got, {sv.ref[d].data() + (rep % windows) * kBatch * nq, kBatch * nq},
          nq);
    };
    EngineConfig one, many;
    one.threads = 1;
    many.threads = workers;
    ReadoutEngine e1(backend, one), en(backend, many);
    e1.process_batch(sv.ds.shots, window(0));
    en.process_batch(sv.ds.shots, window(0));
    // The four measurements alternate batch by batch, so a slow stretch of
    // the machine lands on all of them rather than skewing one, and their
    // order rotates every batch: whichever call runs first after the
    // untimed pass that brings the frames into cache measurably gains.
    repeat_for(kStep, 4, [&](std::size_t rep) {
      const std::size_t base = (rep % windows) * kBatch;
      en.process_batch(sv.ds.shots, window(rep));
      const ShotFrameAt frame_at = [&](std::size_t s) -> const IqTrace& {
        return sv.frame(base + s);
      };
      const ShotLabelsAt labels_at = [&](std::size_t s) {
        return std::span<int>(labels.data() + s * nq, nq);
      };
      // discrim: the backend's own batched classify, one thread.
      const auto discrim = [&] {
        {
          ScopedSpan s(tr, "discrim." + dp, rep, kBatch);
          backend.classify_batch_into(0, kBatch, frame_at, scratch, labels_at);
        }
        check(labels, rep);
      };
      // dsp + nn: the same batch, layer by layer.
      const auto layers = [&] {
        for (std::size_t t = 0; t < kBatch; t += kTile) {
          const IqTrace* frames[kTile];
          for (std::size_t s = 0; s < kTile; ++s)
            frames[s] = &sv.frame(base + t + s);
          tiles(d, frames, kTile, labels.data() + t * nq);
        }
        check(labels, rep);
      };
      // engine at one worker and at the benchmark's worker count.
      const auto engine = [&](ReadoutEngine& e, const char* suffix) {
        EngineBatch b;
        {
          ScopedSpan s(tr, "engine." + dp + suffix, rep, kBatch);
          b = e.process_batch(sv.ds.shots, window(rep));
        }
        check(b.labels, rep);
      };
      const std::function<void()> steps[] = {
          discrim, layers, [&] { engine(e1, ".w1"); }, [&] { engine(en, ".wN"); }};
      for (std::size_t k = 0; k < 4; ++k) steps[(rep + k) % 4]();
    });
  }
  // pool: an empty-body fan-out at the benchmark's worker count.
  const std::function<void(std::size_t, std::size_t, std::size_t)> empty =
      [](std::size_t, std::size_t, std::size_t) {};
  repeat_for(0.2, 100, [&](std::size_t rep) {
    ScopedSpan s(tr, "pool.dispatch", rep, 1);
    parallel_for_slots(0, kBatch, workers, empty);
  });
}

/// Round-trips every datapath's snapshot in memory, repeatedly.
void trace_snapshot_layer(const Served& sv, Tracer& tr, double& bytes) {
  repeat_for(0.1, 5, [&](std::size_t rep) {
    ScopedSpan s(tr, "snapshot.roundtrip", rep, 3);
    bytes = 0.0;
    for (const BackendSnapshot& snap : sv.dp) {
      std::ostringstream os;
      snap.save(os);
      const std::string b = os.str();
      bytes += static_cast<double>(b.size());
      std::istringstream is(b);
      load_backend(is);
    }
  });
}

// ----------------------------------------------------------- workloads ----

struct Outcome {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool invariants = true;
};

struct StreamPhases {
  PhaseRun lo, hi, max;
};

/// The lo, hi and max phases, `seconds` long each, after a short unpaced
/// warm-up.
StreamPhases run_stream_phases(const Served& sv, std::size_t workers,
                               std::uint64_t seed, const double (&seconds)[3],
                               Tracer& tr) {
  const std::size_t pool = sv.pool.size();
  const Schedule lo = make_schedule(kLoRate, seconds[0], 0, pool, seed * 3 + 1);
  const Schedule hi = make_schedule(kHiRate, seconds[1], 0, pool, seed * 3 + 2);
  const Schedule mx = make_schedule(
      0.0, seconds[2], static_cast<std::size_t>(seconds[2] * kMaxRateCap) + 1024,
      pool, seed * 3 + 3);
  {
    Tracer off(false);
    run_phase(sv, workers, mx, 0.3, off);
  }
  StreamPhases p;
  {
    ScopedSpan s(tr, "streaming.lo");
    p.lo = run_phase(sv, workers, lo, seconds[0], tr);
  }
  {
    ScopedSpan s(tr, "streaming.hi");
    p.hi = run_phase(sv, workers, hi, seconds[1], tr);
  }
  {
    ScopedSpan s(tr, "streaming.max");
    p.max = run_phase(sv, workers, mx, seconds[2], tr);
  }
  return p;
}

void stream_details(const StreamPhases& p) {
  for (const auto& [name, run] :
       {std::pair<const char*, const PhaseRun*>{"lo", &p.lo},
        {"hi", &p.hi}}) {
    const std::string pre = std::string("stream_") + name;
    detail(pre + "_p50_us", perfbench::median(run->latency_us), "us");
    detail(pre + "_p99_us", perfbench::quantile(run->latency_us, 0.99), "us");
    detail(pre + "_samples", static_cast<double>(run->shots), "count");
    if (const auto tail = perfbench::highest_supported_tail(run->latency_us)) {
      std::ostringstream n;
      n << pre << "_tail_p" << tail->pct << "_us";
      detail(n.str(), tail->value, "us");
    }
    detail(pre + "_backlog_growing",
           perfbench::backlog_growing(run->backlog) ? 1.0 : 0.0, "bool");
  }
  detail("stream_max_shots_per_s", delivered_rate(p.max), "1/s");
  detail("stream_max_samples", static_cast<double>(p.max.shots), "count");
}

void add_stream_layers(const Served& sv, std::size_t workers,
                       const StreamPhases& p, std::map<std::string, double>& v,
                       Tracer& tr) {
  const auto layer = [&](const char* name, const PhaseRun& run) {
    const std::string pre = std::string("streaming.") + name;
    v[pre + ".batch_mean"] = static_cast<double>(run.shots) /
                             static_cast<double>(std::max<std::uint64_t>(1, run.batches));
    if (std::string(name) == "max") return;
    v[pre + ".submit_us.p99"] = p99(run.submit_us);
    v[pre + ".backlog_max"] = run.backlog_max;
    v[pre + ".gen_lag_us.p99"] = p99(run.gen_lag_us);
    v[pre + ".p50_us"] = perfbench::median(run.latency_us);
    v[pre + ".p99_us"] = p99(run.latency_us);
  };
  layer("lo", p.lo);
  layer("hi", p.hi);
  layer("max", p.max);
  const double max_rate = delivered_rate(p.max);
  v["streaming.max.shots_per_s"] = max_rate;
  // Synchronous process_batch at the max phase's mean micro-batch size.
  const auto batch = static_cast<std::size_t>(
      std::clamp(std::round(v["streaming.max.batch_mean"]), 1.0,
                 static_cast<double>(kBatch)));
  EngineConfig cfg;
  cfg.threads = workers;
  ReadoutEngine engine(sv.dp[0].backend(), cfg);
  std::uint64_t shots = 0;
  const Clock::time_point start = Clock::now();
  repeat_for(0.3, 10, [&](std::size_t rep) {
    const std::size_t off = (rep * batch) % (sv.pool.size() - batch);
    ScopedSpan s(tr, "streaming.sync_probe", rep, batch);
    engine.process_batch(sv.ds.shots, {sv.pool.data() + off, batch});
    shots += batch;
  });
  v["streaming.max.sync_ratio"] =
      max_rate / (static_cast<double>(shots) / seconds_since(start));
}

/// The workload's headline time per operation, for trace.overhead_frac.
double headline_us(const std::string& workload, const Served& sv,
                   std::size_t workers, std::uint64_t seed, double seconds,
                   Tracer& tr) {
  if (workload == "batch_offline")
    return perfbench::median(run_batch_offline(sv, workers, seconds, tr).round_us);
  const Schedule lo = make_schedule(kLoRate, seconds, 0, sv.pool.size(),
                                    seed * 3 + 1);
  return perfbench::median(run_phase(sv, workers, lo, seconds, tr).latency_us);
}

Outcome run_untraced(const Options& opt, std::size_t workers) {
  Outcome o;
  Tracer off(false);
  std::vector<double> setup_s;
  const std::size_t n_dp = opt.workload == "qec_stream" ? 1 : 3;
  std::vector<double> f5q;
  Served sv;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    sv = setup_served(opt.seed, n_dp, workers, off);
    setup_s.push_back(seconds_since(t0));
    // Training is deterministic: every set-up must serve the same
    // backends, so the same F5Q, and round-trip them byte for byte.
    o.invariants &= sv.roundtrip_identical;
    if (f5q.empty()) f5q = sv.f5q;
    o.invariants &= sv.f5q == f5q;
  };
  set_up();
  auto& v = o.values;

  // The gated timings are reduced per window with least_disturbed, so the
  // host's steal time is sampled while the workload runs.
  StealMonitor steal;
  if (opt.workload == "batch_offline") {
    const BatchRun run = run_batch_offline(sv, workers, opt.seconds, off);
    steal.stop();
    // Quantile q of each window of kRoundsPerWindow rounds (the windows
    // windowed_quantiles makes), reduced.
    const auto rounds = [&](double q) {
      const std::vector<double> figure =
          perfbench::windowed_quantiles(run.round_us, kRoundsPerWindow, q);
      const std::size_t n = run.round_us.size();
      std::vector<double> stolen;
      for (std::size_t w = 0; w < figure.size(); ++w) {
        const std::size_t lo = w * kRoundsPerWindow;
        const std::size_t hi = n < kRoundsPerWindow ? n : lo + kRoundsPerWindow;
        const auto end = run.round_start[hi - 1] +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(run.round_us[hi - 1]));
        stolen.push_back(steal.ticks(run.round_start[lo], end));
      }
      return perfbench::least_disturbed(figure, stolen, kQuietTime);
    };
    v["p50_us"] = rounds(0.5);
    v["shots_per_s"] = 3.0 * kBatch * 1e6 / v["p50_us"];
    v["tail_us"] = rounds(0.9);
    v["f5q"] = (sv.f5q[0] + sv.f5q[1] + sv.f5q[2]) / 3.0;
    for (int d = 0; d < 3; ++d)
      detail(std::string(kDatapaths[d]) + "_shots_per_s",
             kBatch * 1e6 / perfbench::median(run.dp_us[d]), "1/s");
    detail("rounds", static_cast<double>(run.round_us.size()), "count");
    detail("round_spread_within_run", perfbench::summarize(run.round_us).spread(),
           "ratio");
    o.attempted = run.shots;
    o.failed = run.failed;
  } else {
    // lo and max carry the gated metrics; a short hi phase feeds the
    // stream_hi_* detail lines only (its tail is too noisy to gate). lo
    // gets the longest share: its latency needs slices the host left
    // alone, while max's rate recovers quickly from a stolen moment.
    const double S = opt.seconds;
    const StreamPhases p =
        run_stream_phases(sv, workers, opt.seed, {0.6 * S, 0.1 * S, 0.3 * S}, off);
    steal.stop();
    const auto stolen = [&](const Slice& s) {
      return steal.ticks(s.start, s.start + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(s.seconds)));
    };
    std::vector<double> rate, rate_stolen;
    for (const Slice& s : slices(p.max)) {
      rate.push_back(s.rate());
      rate_stolen.push_back(stolen(s));
    }
    std::vector<double> p50, p90, lo_stolen;
    for (const Slice& s : slices(p.lo)) {
      if (s.latency_us.empty()) continue;
      p50.push_back(perfbench::median(s.latency_us));
      p90.push_back(perfbench::quantile(s.latency_us, 0.9));
      lo_stolen.push_back(stolen(s));
    }
    v["shots_per_s"] = perfbench::least_disturbed(rate, rate_stolen, kQuietRate);
    v["p50_us"] = perfbench::least_disturbed(p50, lo_stolen, kQuietTime);
    v["tail_us"] = perfbench::least_disturbed(p90, lo_stolen, kQuietTime);
    v["f5q"] = sv.f5q[0];
    stream_details(p);
    detail("lo_p50_spread_within_run", perfbench::summarize(p50).spread(), "ratio");
    o.attempted = p.lo.shots + p.hi.shots + p.max.shots;
    o.failed = p.lo.failed + p.hi.failed + p.max.failed;
  }
  detail("host_steal_share", steal.share(), "ratio");
  for (std::size_t d = 0; d < sv.f5q.size(); ++d)
    detail(std::string("f5q_") + kDatapaths[d], sv.f5q[d], "ratio");
  detail("f5q_float_matches_table4_0.9111",
         std::round(sv.f5q[0] * 1e4) == 9111.0 ? 1.0 : 0.0, "bool");
  detail("snapshot_bytes", sv.snapshot_bytes, "bytes");
  // Peak RSS covers one set-up plus the measured loop. The further set-ups
  // for the setup_s median run afterwards, each after the previous one is
  // released: freed memory is reused in an order that depends on thread
  // scheduling, which would make a later peak vary from run to run.
  v["peak_rss_mb"] = peak_rss_mb();
  for (int k = 1; k < kSetupRepeats; ++k) {
    sv = Served{};
    set_up();
  }
  v["setup_s"] = perfbench::median(setup_s);
  detail("setup_s", v["setup_s"], "s");
  detail("peak_rss_mb", v["peak_rss_mb"], "MB");
  detail("error_frac",
         o.attempted ? static_cast<double>(o.failed) / static_cast<double>(o.attempted)
                     : 1.0,
         "ratio");
  return o;
}

Outcome run_traced(const Options& opt, std::size_t workers, Tracer& tr) {
  Outcome o;
  auto& v = o.values;
  Served sv;
  for (int k = 0; k < kSetupRepeats; ++k) {
    ScopedSpan s(tr, "setup", static_cast<std::uint64_t>(k));
    sv = Served{};
    sv = setup_served(opt.seed, 3, workers, tr);
    o.invariants &= sv.roundtrip_identical;
  }
  {
    ScopedSpan s(tr, "sweep");
    trace_training_layers(sv.ds, workers, tr);
    trace_serving_layers(sv, workers, tr, o.attempted, o.failed);
    double bytes = 0.0;
    trace_snapshot_layer(sv, tr, bytes);
    v["snapshot.bytes"] = bytes;
    const double phase_s = opt.workload == "qec_stream" ? opt.seconds / 6.0 : 1.0;
    const StreamPhases p =
        run_stream_phases(sv, workers, opt.seed, {phase_s, phase_s, phase_s}, tr);
    add_stream_layers(sv, workers, p, v, tr);
    o.attempted += p.lo.shots + p.hi.shots + p.max.shots;
    o.failed += p.lo.failed + p.hi.failed + p.max.failed;
  }
  // Tracing overhead: the workload's headline per-operation time with the
  // tracer off, then on, over equal halves of the remaining budget.
  {
    Tracer off(false);
    const double half = opt.workload == "qec_stream" ? opt.seconds / 4.0
                                                     : opt.seconds / 2.0;
    const double untraced =
        headline_us(opt.workload, sv, workers, opt.seed, half, off);
    ScopedSpan s(tr, "overhead");
    const double traced =
        headline_us(opt.workload, sv, workers, opt.seed, half, tr);
    v["trace.overhead_frac"] = traced / untraced - 1.0;
  }

  const auto totals = tr.totals();
  const auto totals_of = [&](const std::string& name) {
    const auto it = totals.find(name);
    if (it == totals.end()) throw std::runtime_error("no spans named " + name);
    return it->second;
  };
  v["readout.dataset_s"] = median_span_s(tr, "readout.dataset");
  v["discrim.proposed_train_s"] = median_span_s(tr, "discrim.train");
  v["discrim.quantize.int16_s"] = median_span_s(tr, "discrim.quantize.int16");
  v["discrim.quantize.int8_s"] = median_span_s(tr, "discrim.quantize.int8");
  v["mf.bank_train_s"] = 1e-9 * totals_of("mf.bank_train").self_ns;
  v["mf.cross_fit_s"] = 1e-9 * totals_of("mf.cross_fit").self_ns;
  const Tracer::Totals heads = totals_of("nn.trainer");
  v["nn.trainer.heads_s"] = 1e-9 * heads.self_ns;
  v["nn.trainer.epoch_ms"] = 1e-6 * heads.self_ns / static_cast<double>(heads.items);
  v["snapshot.roundtrip_ms"] = 1e3 * median_span_s(tr, "snapshot.roundtrip");
  for (const char* dp : kDatapaths) {
    const std::string d = dp;
    const double discrim = median_ns_per_item(tr, "discrim." + d);
    const double w1 = median_ns_per_item(tr, "engine." + d + ".w1");
    const double wn = median_ns_per_item(tr, "engine." + d + ".wN");
    v["dsp." + d + ".ns_per_shot"] = median_ns_per_item(tr, "dsp." + d);
    v["nn.head." + d + ".ns_per_shot"] = median_ns_per_item(tr, "nn.head." + d);
    v["discrim." + d + ".ns_per_shot"] = discrim;
    v["engine." + d + ".overhead_ns_per_shot"] = w1 - discrim;
    v["engine." + d + ".w1_shots_per_s"] = 1e9 / w1;
    v["engine." + d + ".scaling"] = w1 / wn;
  }
  v["pool.dispatch_us"] = 1e-3 * median_ns_per_item(tr, "pool.dispatch");
  v["trace.spans"] = static_cast<double>(tr.spans().size());
  return o;
}

// ---------------------------------------------------------------- main ----

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() != "0";
    else if (a == "--trace-file") opt.trace_file = value();
    else if (a == "--git-sha") opt.git_sha = value();
    else if (a == "--list-metrics") opt.list_metrics = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (opt.list_metrics) return true;
  if (opt.workload != "batch_offline" && opt.workload != "qec_stream")
    throw std::invalid_argument("--workload must be batch_offline or qec_stream");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    parse(argc, argv, opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  if (opt.list_metrics) {
    for (const MetricDef& d : kMetricDefs)
      std::cout << d.name << ' ' << d.unit << ' '
                << (d.per_layer ? "per_layer" : "end_to_end") << '\n';
    return 0;
  }
  if (!optimized_build() || sanitized_build()) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << (sanitized_build() ? " sanitizer" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  // Worker counts: the benchmark's own threads (producer + consumer in
  // qec_stream) plus the engine workers stay within the CPUs this process
  // may use. The process-wide pool is sized to match before first use.
  std::string mask;
  const std::size_t cpus = std::max<std::size_t>(1, affinity_cpus(&mask));
  const std::size_t workers = std::clamp<std::size_t>(cpus > 2 ? cpus - 2 : 1, 1, 2);
  setenv("MLQR_THREADS", std::to_string(workers).c_str(), 1);

  std::ostringstream ctx;
  ctx << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << opt.seconds << ", \"trace\": " << opt.trace
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"affinity_cpus\": " << cpus << ", \"affinity_mask\": \"" << mask
      << "\", \"cgroup_cpu_max\": \"" << cgroup_cpu_max()
      << "\", \"spin_probe_cores\": "
      << perfbench::json_number(spin_probe_cores(cpus, 0.5))
      << ", \"simd_tier\": \"" << simd::tier() << "\", \"git_sha\": \""
      << opt.git_sha << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"engine_workers\": " << workers
      << ", \"trainer_workers\": " << workers
      << ", \"pool_threads\": " << parallel_thread_count()
      << ", \"shards\": " << kShards << ", \"batch\": " << kBatch
      << ", \"lo_rate\": " << kLoRate << ", \"hi_rate\": " << kHiRate
      << ", \"shots_per_state\": " << kShotsPerState << "}";
  std::cout << "context " << ctx.str() << std::endl;

  try {
    Tracer tracer(opt.trace);
    const Outcome o =
        opt.trace ? run_traced(opt, workers, tracer) : run_untraced(opt, workers);
    if (opt.trace && !opt.trace_file.empty() && !tracer.write(opt.trace_file))
      throw std::runtime_error("cannot write " + opt.trace_file);
    const bool correct = o.invariants && o.failed == 0 && o.attempted > 0;
    std::cout << perfbench::result_json(correct, o.attempted, o.failed,
                                        select_metrics(o.values, opt.trace))
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
