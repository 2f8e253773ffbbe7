// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --root REPO_ROOT --out SCRATCH_DIR
//
// Runs one named workload through the public harness API the way fncc_run
// does (ParseSpecFile/ExpandSweep -> RunExperimentPoint ->
// WriteExperimentOutputs), repeatedly for S seconds, and prints one JSON
// object on its last stdout line: per-repetition wall times, the replayed
// set-up times, every point's deterministic outputs (event count, FCT
// digest, completions, drops, simulated counters) and, with --trace 1, the
// per-layer costs and the span trace summary. perfbench/run.py builds this
// program, checks the outputs against perfbench/references.json and prints
// the benchmark's result line. Layers are measured from outside only: every
// number here comes from timing calls into public functions of sim, net,
// transport, cc, core, workload, stats, harness and exec.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cc/cc_algorithm.hpp"
#include "core/cc_factory.hpp"
#include "exec/window_barrier.hpp"
#include "harness/experiment_runner.hpp"
#include "harness/experiment_spec.hpp"
#include "harness/scenario.hpp"
#include "net/packet_pool.hpp"
#include "net/switch.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/fct_sink.hpp"
#include "transport/host.hpp"
#include "workload/flow_source.hpp"

namespace {

using namespace fncc;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------ tracing
// Spans are recorded from this file only, around calls into the simulator's
// public functions: name ("layer.call"), start, end, parent span and point
// id. They stay in memory and are written out when the run ends.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int point = -1;
};

class Tracer {
 public:
  bool enabled = false;

  int Begin(const std::string& name, int point) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Now(), 0.0, parent, point});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Now();
    stack_.pop_back();
  }

  /// Self time per layer (the span name's prefix before the first '.'):
  /// each span's duration minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name.substr(0, s.name.find('.'))] += s.end - s.start - child[i];
    }
    return self;
  }

  [[nodiscard]] bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d, \"point\": %d}",
                    i, s.name.c_str(), s.start, s.end, s.parent, s.point);
      out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return out.good();
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  double Now() const { return SecondsSince(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// Times one call: always returns the call's seconds; records a span when
/// tracing is on.
template <typename F>
double Timed(const char* name, int point, F&& f) {
  const int span = g_tracer.Begin(name, point);
  const auto t0 = Clock::now();
  f();
  const double s = SecondsSince(t0);
  g_tracer.End(span);
  return s;
}

// ---------------------------------------------------------------- workloads

struct WorkloadDef {
  std::string name;
  std::string spec_file;  // relative to the repository root
  std::vector<std::string> overrides;
  /// > 0: the seed maps to scenario seeds whose flows carry their
  /// expected volume within this share (PickScenarioSeeds). Heavy-tailed
  /// size CDFs otherwise swing a fixed flow count's work by tens of
  /// percent between seeds. 0: scenario.seed is the benchmark seed.
  double volume_tolerance = 0;
  /// Repetitions cycle over this many scenario seeds drawn from the
  /// benchmark seed, so one run's medians cover several traffic samples.
  int sub_seeds = 1;
  int threads = 1;  // 0 = hardware concurrency
  bool one_lane_reference = false;  // also run exec_domains=1, 1 thread
};

/// Moves a single-threaded workload's repetitions round-robin over every
/// CPU the process may use. On a shared host one core can run tens of
/// percent slower than another for minutes, and the scheduler keeps a lone
/// thread on one core, so without this a run's median would mostly say
/// which core it landed on.
class CpuRotation {
 public:
  CpuRotation() {
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinFor(std::size_t rep) {
    if (!cpus_.empty()) Pin(cpus_[rep % cpus_.size()]);
  }
  void Unpin() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }
  [[nodiscard]] const std::vector<int>& cpus() const { return cpus_; }

 private:
  static void Pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

/// Seconds of a fixed kernel that shares no code with the simulator:
/// random read-modify-writes over a 4 MiB table, cache-bound like the
/// event loop. A core of a shared host runs tens of percent slower for
/// minutes while other tenants are busy; timed next to a repetition, this
/// kernel slows with it, and run.py divides the drift out (README, "Host
/// speed"). The probe's own time is not part of any repetition's wall.
double ProbeKernelSeconds() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < 4 * table.size(); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 40) & (table.size() - 1)] += x;
  }
  const double s = SecondsSince(t0);
  if (table[x & (table.size() - 1)] == 1) std::fputc(' ', stderr);
  return s;
}

/// The probe on the CPUs a repetition runs on: the pinned one when the
/// workload is single-threaded, else each CPU in turn (mean), after which
/// the thread may run anywhere again.
double ProbeHostSpeed(CpuRotation& cpus, std::optional<std::size_t> pinned_rep) {
  if (pinned_rep) {
    cpus.PinFor(*pinned_rep);
    return ProbeKernelSeconds();
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < cpus.cpus().size(); ++i) {
    cpus.PinFor(i);
    sum += ProbeKernelSeconds();
  }
  cpus.Unpin();
  return cpus.cpus().empty() ? ProbeKernelSeconds()
                             : sum / static_cast<double>(cpus.cpus().size());
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<WorkloadDef> Workloads() {
  return {
      {"websearch_k8",
       "specs/fig14_websearch.exp",
       {"workload.num_flows=50"},
       0.02,
       4,
       1,
       false},
      {"permutation_k16_pdes", "specs/fat_tree_k16.exp", {}, 0, 1, 0, true},
      {"hadoop_stream_k8",
       "specs/fig15_hadoop.exp",
       {"sweep.mode=FNCC", "run.launch_window_us=100", "run.monitor=false",
        "output.stream_fct=true", "workload.num_flows=4000"},
       0.01,
       4,
       1,
       false},
  };
}

// ------------------------------------------------------------ set-up replay
// The runner's set-up sequence, replayed through the same public calls in
// the same order: Partition -> TopologyRegistry::Build -> ComputeRoutes ->
// SealDomains -> WorkloadRegistry::Generate (or MakeSource when streaming).

/// scenario.exec_domains resolved the way the runner resolves it.
int ResolveLanes(const ExperimentSpec& point, const TopologyParams& topo) {
  if (point.scenario.exec_domains > 0) return point.scenario.exec_domains;
  if (point.scenario.propagation_delay <= 0) return 1;
  return std::clamp(TopologyNaturalDomains(point.topology, topo), 1, 64);
}

struct SetupTimes {
  double partition = 0, build = 0, routes = 0, seal = 0, generate = 0;
  [[nodiscard]] double total() const {
    return partition + build + routes + seal + generate;
  }
  void Add(const SetupTimes& o) {
    partition += o.partition;
    build += o.build;
    routes += o.routes;
    seal += o.seal;
    generate += o.generate;
  }
};

/// Mean over samples of one SetupTimes field. A mean, not a median: the
/// cheapest calls last tens of nanoseconds, and a median of such clock
/// readings would repeat the same quantized value run after run.
double MeanOf(const std::vector<SetupTimes>& samples,
              double SetupTimes::*field) {
  double sum = 0.0;
  for (const SetupTimes& t : samples) sum += t.*field;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

/// One replayed set-up, kept alive so the probes can take their inputs
/// (switches, hosts, flow streams) from the workload's own fabric.
struct Fabric {
  std::unique_ptr<Simulator> sim = std::make_unique<Simulator>();
  std::unique_ptr<Rng> rng;
  std::unique_ptr<BuiltTopology> topo;
  std::vector<GeneratedFlow> flows;
  std::unique_ptr<FlowSource> source;
  int lanes = 1;
};

std::unique_ptr<Fabric> ReplaySetup(const ExperimentSpec& point, int point_id,
                                    SetupTimes* times) {
  auto f = std::make_unique<Fabric>();
  const ScenarioConfig& sc = point.scenario;
  const TopologyParams topo_params = ResolveTopologyParams(point);
  const WorkloadParams wl_params = ResolveWorkloadParams(point);
  f->sim->set_delivery_batch(sc.delivery_batch);
  f->lanes = ResolveLanes(point, topo_params);
  times->partition = Timed("sim.partition", point_id,
                           [&] { f->sim->Partition(f->lanes); });
  f->rng = std::make_unique<Rng>(sc.seed);
  times->build = Timed("net.build", point_id, [&] {
    f->topo = std::make_unique<BuiltTopology>(TopologyRegistry::Build(
        point.topology, f->sim.get(), MakeHostFactory(sc),
        MakeSwitchConfig(sc), f->rng.get(), topo_params));
  });
  times->routes = Timed("net.routes", point_id, [&] {
    f->topo->net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  });
  times->seal =
      Timed("net.seal", point_id, [&] { f->topo->net.SealDomains(); });
  const WorkloadHosts roles{f->topo->hosts, f->topo->senders,
                            f->topo->receiver};
  times->generate = Timed("workload.generate", point_id, [&] {
    if (point.run.launch_window > 0) {
      f->source = WorkloadRegistry::MakeSource(point.workload, *f->rng, roles,
                                               wl_params);
    } else {
      f->flows = WorkloadRegistry::Generate(point.workload, *f->rng, roles,
                                            wl_params);
    }
  });
  return f;
}

/// The scenario seeds a benchmark seed maps to. Candidates seed * 1000 + j
/// are tried in order; the first `count` whose flow stream (same set-up
/// draws as the runner) carries its expected volume, num_flows x the CDF's
/// mean size, within `tolerance` are taken, so every seed offers the same
/// flow count and nearly the same bytes.
std::vector<std::uint64_t> PickScenarioSeeds(ExperimentSpec point,
                                             std::uint64_t seed, int count,
                                             double tolerance) {
  const WorkloadParams params = ResolveWorkloadParams(point);
  const double target =
      params.cdf.mean_bytes() * static_cast<double>(params.num_flows);
  point.run.launch_window = Microseconds(100);  // take the FlowSource
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t j = 0; j < 1000 && static_cast<int>(seeds.size()) < count;
       ++j) {
    point.scenario.seed = seed * 1000 + j;
    SetupTimes ignored;
    const std::unique_ptr<Fabric> f = ReplaySetup(point, -1, &ignored);
    GeneratedFlow gf;
    double bytes = 0;
    while (f->source->Next(&gf)) bytes += static_cast<double>(gf.spec.size_bytes);
    if (std::abs(bytes - target) <= tolerance * target) {
      seeds.push_back(point.scenario.seed);
    }
  }
  if (static_cast<int>(seeds.size()) < count) {
    throw SpecError("too few scenario seeds within the volume tolerance");
  }
  return seeds;
}

// ------------------------------------------------------------ workload runs

/// One FCT CSV row as the harness writes it.
struct FctRow {
  FlowSpec spec;
  Time fct = 0;
  double slowdown = 0.0;
};

std::vector<FctRow> ReadFctCsv(const std::string& path,
                               std::uint64_t* digest) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::vector<FctRow> rows;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over (id, size, fct)
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) f.push_back(cell);
    if (f.size() != 8) continue;
    const std::string key = f[0] + ',' + f[3] + ',' + f[5] + '\n';
    for (const char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    FctRow r;
    r.spec.id = static_cast<FlowId>(std::stoul(f[0]));
    r.spec.src = static_cast<NodeId>(std::stoul(f[1]));
    r.spec.dst = static_cast<NodeId>(std::stoul(f[2]));
    r.spec.size_bytes = std::stoull(f[3]);
    r.spec.start_time = Microseconds(std::stod(f[4]));
    r.fct = Microseconds(std::stod(f[5]));
    r.spec.ideal_fct = Microseconds(std::stod(f[6]));
    r.slowdown = std::stod(f[7]);
    rows.push_back(r);
  }
  *digest = h;
  return rows;
}

struct PointOutcome {
  std::string label;
  ExperimentPointResult result;
  std::uint64_t digest = 0;
  double mean_slowdown = 0.0;
  std::size_t rows = 0;
};

struct RepOutcome {
  double wall = 0.0;  // parsed spec -> written outputs
  double probe = 0.0;  // ProbeHostSpeed, mean of before and after
  double parse = 0.0;
  double outputs = 0.0;
  std::vector<PointOutcome> points;
  std::vector<std::vector<FctRow>> records;  // kept for the stats probe
};

ExperimentSpec LoadSpec(const std::string& root, const WorkloadDef& def,
                        const std::vector<std::string>& extra) {
  ExperimentSpec spec = ParseSpecFile(root + "/" + def.spec_file);
  ApplySpecOverrides(spec, def.overrides);
  ApplySpecOverrides(spec, extra);
  ValidateSpec(spec);
  return spec;
}

/// One run of the workload as fncc_run performs it: parse, expand, run
/// each point (streaming points into per-point FctSinks on the CSV paths
/// the outputs step records), write outputs.
RepOutcome RunWorkload(const std::string& root, const WorkloadDef& def,
                       const std::vector<std::string>& extra, int threads,
                       bool keep_records) {
  RepOutcome rep;
  const auto t0 = Clock::now();
  ExperimentSpec spec;
  std::vector<ExperimentSpec> points;
  rep.parse = Timed("harness.parse", -1, [&] {
    spec = LoadSpec(root, def, extra);
    points = ExpandSweep(spec);
  });
  const std::filesystem::path dir = spec.output.dir;
  std::filesystem::create_directories(dir);
  const std::vector<std::string> csv = PointFctCsvPaths(spec, points);
  std::vector<ExperimentPointResult> results;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::unique_ptr<FctSink> sink;
    if (spec.output.stream_fct) {
      FctSinkOptions options;
      options.csv_path = csv[i];
      if (!spec.output.buckets.empty()) {
        options.bucket_edges = BucketEdgesByName(spec.output.buckets);
      }
      sink = std::make_unique<FctSink>(std::move(options));
    }
    // fncc_run's thread rule: a single point gets the whole budget for its
    // domain lanes; multi-point sweeps on one thread run point by point.
    const int intra = points.size() == 1 ? threads : 1;
    Timed("harness.run_point", static_cast<int>(i), [&] {
      results.push_back(RunExperimentPoint(points[i], intra, sink.get()));
      if (sink && !sink->Finish()) {
        throw SpecError("failed to write " + sink->csv_path());
      }
    });
  }
  rep.outputs = Timed("harness.outputs", -1, [&] {
    WriteExperimentOutputs(spec, points, results, threads,
                           SecondsSince(t0));
  });
  rep.wall = SecondsSince(t0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointOutcome p;
    p.label = points[i].label.empty() ? def.name : points[i].label;
    std::vector<FctRow> rows = ReadFctCsv(csv[i], &p.digest);
    double sum = 0.0;
    for (const FctRow& r : rows) sum += r.slowdown;
    p.rows = rows.size();
    p.mean_slowdown = rows.empty() ? 0.0 : sum / static_cast<double>(p.rows);
    p.result = std::move(results[i]);
    rep.points.push_back(std::move(p));
    if (keep_records) rep.records.push_back(std::move(rows));
  }
  return rep;
}

// ------------------------------------------------------------------- probes
// Per-call costs of single layers, each timed through a public function on
// inputs taken from the workload: its scenario, its built fabric, its flow
// stream, its own FCT records.

/// Drops every delivery (a stand-in peer for the probe switch and host).
class ProbeSink final : public Endpoint {
 public:
  ProbeSink(Simulator* sim, NodeId id) : Endpoint(sim, id, "sink"), nic_(sim) {}
  EgressPort& nic() override { return nic_; }
  void ReceivePacket(PacketPtr, int) override {}

 private:
  EgressPort nic_;
};

/// Median ns per call over `batches` batches of `per_batch` calls.
template <typename F>
double NsPerCall(const char* name, int batches, int per_batch, F&& call) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const double s = Timed(name, -1, [&] {
      for (int i = 0; i < per_batch; ++i) call(i);
    });
    ns.push_back(s * 1e9 / per_batch);
  }
  return Median(ns);
}

/// Event-kernel cost: self-rescheduling events at the fabric's node count
/// of concurrently pending events, through Simulator::Schedule/Run.
double ProbeEventKernel(std::size_t depth) {
  struct Tick {
    Simulator* sim;
    std::uint64_t* left;
    std::uint64_t x;
    void operator()() {
      if (*left == 0) return;
      --*left;
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      sim->Schedule(1 + static_cast<Time>((x >> 40) % 1'000'000),
                    Tick{sim, left, x});
    }
  };
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    Simulator sim;
    std::uint64_t left = 400'000;
    for (std::size_t i = 0; i < depth; ++i) {
      sim.Schedule(static_cast<Time>(i), Tick{&sim, &left, i + 1});
    }
    const double s = Timed("sim.kernel_probe", -1, [&] { sim.Run(); });
    ns.push_back(s * 1e9 / static_cast<double>(sim.events_processed()));
  }
  return Median(ns);
}

/// Switch::ReceivePacket through egress serialization and delivery: a
/// probe switch configured and routed like the fabric's first switch
/// (same SwitchConfig, port count and route table), forwarding MTU data
/// packets to the workload's hosts with peers that drop deliveries.
double ProbeSwitchForward(const ExperimentSpec& point, const Fabric& f) {
  const ScenarioConfig& sc = point.scenario;
  Switch* real = f.topo->net.switches().front();
  Simulator sim;
  Rng rng(sc.seed);
  SwitchConfig config = MakeSwitchConfig(sc);
  config.num_ports = real->num_ports();
  Switch sw(&sim, real->id(), "probe", config, &rng);
  sw.routing() = real->routing();
  sw.SetEcmp(sc.ecmp_salt, sc.symmetric_ecmp);
  std::vector<std::unique_ptr<ProbeSink>> peers;
  const NodeId base = static_cast<NodeId>(f.topo->net.num_nodes());
  for (int p = 0; p < sw.num_ports(); ++p) {
    peers.push_back(std::make_unique<ProbeSink>(
        &sim, base + static_cast<NodeId>(p)));
    sw.port(p).Connect({peers.back().get(), 0}, sc.link_gbps,
                       sc.propagation_delay);
  }
  const std::vector<NodeId>& hosts = f.topo->hosts;
  return NsPerCall("net.forward_probe", 7, 20'000, [&](int i) {
    PacketPtr pkt = sim.packet_pool().Acquire();
    pkt->type = PacketType::kData;
    pkt->flow = static_cast<FlowId>(i);
    pkt->src = hosts[static_cast<std::size_t>(i * 7) % hosts.size()];
    pkt->dst = hosts[static_cast<std::size_t>(i * 13 + 1) % hosts.size()];
    pkt->sport = static_cast<std::uint16_t>(1000 + i % 4096);
    pkt->dport = static_cast<std::uint16_t>(5000 + i % 1024);
    pkt->size_bytes = sc.mtu_bytes;
    pkt->payload_bytes = sc.mtu_bytes;
    if (pkt->src == pkt->dst || !sw.routing().HasRoute(pkt->dst)) return;
    sw.ReceivePacket(std::move(pkt), 0);
    sim.RunUntil(sim.Now() + Microseconds(1));
  });
}

/// An FNCC-shaped ACK: three reversed INT hops, no cumulative progress, so
/// successive ACKs keep running the full CC update without transmitting.
void FillProbeAck(Packet& ack, FlowId flow, Time ts) {
  ack.type = PacketType::kAck;
  ack.flow = flow;
  ack.seq = 0;
  ack.size_bytes = kAckBytes;
  ack.int_reversed = true;
  ack.concurrent_flows = 2;
  for (int h = 0; h < 3; ++h) {
    ack.int_stack.push_back(IntEntry{
        100.0, ts, 12'500u * static_cast<std::uint64_t>(h + 1), 40'000});
  }
}

/// Interleaved visiting order over `n` flows (ACKs of concurrent flows do
/// not arrive round-robin).
std::vector<std::uint32_t> Shuffled(std::uint32_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = n; i > 1; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i - 1], order[(lcg >> 33) % i]);
  }
  return order;
}

/// Host::ReceivePacket on an ACK, with as many registered FNCC flows as the
/// workload's point carries.
double ProbeAckPath(const ExperimentSpec& point, std::size_t flow_count) {
  ScenarioConfig sc = point.scenario;
  sc.mode = CcMode::kFncc;
  Simulator sim;
  auto table = std::make_shared<FlowTable>();
  Host host(&sim, 0, "tx", MakeHostConfig(sc), table);
  ProbeSink sink(&sim, 1);
  host.nic().Connect({&sink, 0}, sc.link_gbps, sc.propagation_delay);
  sink.nic().Connect({&host, 0}, sc.link_gbps, sc.propagation_delay);
  const CcConfig cc = MakeCcConfig(sc, sc.link_gbps, Microseconds(12));
  std::vector<FlowId> ids;
  for (std::size_t i = 0; i < flow_count; ++i) {
    FlowSpec spec;
    spec.src = 0;
    spec.dst = 1;
    spec.sport = static_cast<std::uint16_t>(1000 + 2 * i);
    spec.dport = static_cast<std::uint16_t>(1001 + 2 * i);
    spec.size_bytes = 4 * static_cast<std::uint64_t>(cc.mtu_bytes);
    ids.push_back(host.StartFlow(spec, cc)->spec().id);
  }
  sim.RunUntil(Microseconds(100));
  const std::vector<std::uint32_t> order =
      Shuffled(static_cast<std::uint32_t>(ids.size()));
  Time ts = 0;
  return NsPerCall("transport.ack_probe", 7, 50'000, [&](int i) {
    ts += Microseconds(1);
    PacketPtr ack = sim.packet_pool().Acquire();
    FillProbeAck(*ack, ids[order[static_cast<std::size_t>(i) % order.size()]],
                 ts);
    host.ReceivePacket(std::move(ack), 0);
  });
}

/// CcAlgorithm::OnAck for one scheme at the workload's link settings.
double ProbeCcOnAck(const ExperimentSpec& point, CcMode mode) {
  ScenarioConfig sc = point.scenario;
  sc.mode = mode;
  Simulator sim;
  const std::unique_ptr<CcAlgorithm> cc = MakeCcAlgorithm(
      MakeCcConfig(sc, sc.link_gbps, Microseconds(12)), &sim);
  std::uint64_t seq = 1;
  Time ts = 0;
  std::uint64_t tx = 0;
  return NsPerCall("cc.on_ack_probe", 7, 100'000, [&](int) {
    ts += Microseconds(1);
    tx += 12'500;
    seq += sc.mtu_bytes;
    PacketPtr ack = sim.packet_pool().Acquire();
    ack->type = PacketType::kAck;
    ack->seq = seq;
    ack->int_reversed = mode == CcMode::kFncc;
    ack->concurrent_flows = 2;
    for (int h = 0; h < 3; ++h) {
      ack->int_stack.push_back(IntEntry{100.0, ts, tx, 40'000});
    }
    cc->OnAck(*ack, seq + 150'000);
  });
}

/// One WindowBarrier cycle with `participants` threads arriving.
double ProbeBarrierCycle(int participants) {
  const int cycles = participants > 1 ? 20'000 : 1'000'000;
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    WindowBarrier barrier(participants);
    std::vector<std::thread> others;
    for (int t = 1; t < participants; ++t) {
      others.emplace_back([&] {
        for (int c = 0; c < cycles; ++c) barrier.ArriveAndWait();
      });
    }
    const double s = Timed("exec.barrier_probe", -1, [&] {
      for (int c = 0; c < cycles; ++c) barrier.ArriveAndWait();
    });
    for (std::thread& t : others) t.join();
    ns.push_back(s * 1e9 / cycles);
  }
  return Median(ns);
}

/// FlowSource::Next over the workload's own flow stream.
double ProbeFlowSourceNext(const ExperimentSpec& point, Fabric& f,
                           std::size_t flows) {
  const WorkloadHosts roles{f.topo->hosts, f.topo->senders, f.topo->receiver};
  const WorkloadParams params = ResolveWorkloadParams(point);
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    const std::unique_ptr<FlowSource> source =
        WorkloadRegistry::MakeSource(point.workload, *f.rng, roles, params);
    GeneratedFlow gf;
    std::size_t n = 0;
    const double s = Timed("workload.next_probe", -1, [&] {
      while (n < flows && source->Next(&gf)) ++n;
    });
    if (n > 0) ns.push_back(s * 1e9 / static_cast<double>(n));
  }
  return Median(ns);
}

/// FctSink::Append replaying the point's own FCT records (stats only).
double ProbeFctAppend(const ExperimentSpec& point,
                      const std::vector<FctRow>& rows) {
  if (rows.empty()) return 0.0;
  std::vector<double> ns;
  for (int b = 0; b < 7; ++b) {
    FctSinkOptions options;
    if (!point.output.buckets.empty()) {
      options.bucket_edges = BucketEdgesByName(point.output.buckets);
    }
    FctSink sink(options);
    // Enough passes over the records for a measurable batch.
    const std::size_t passes = 1 + 200'000 / rows.size();
    const double s = Timed("stats.append_probe", -1, [&] {
      for (std::size_t p = 0; p < passes; ++p) {
        for (const FctRow& r : rows) sink.Append(r.spec, r.fct);
      }
    });
    ns.push_back(s * 1e9 / static_cast<double>(passes * rows.size()));
  }
  return Median(ns);
}

// ------------------------------------------------------------------- output

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string PointJson(const PointOutcome& p) {
  const ExperimentPointResult& r = p.result;
  JsonObject o;
  o.Str("label", p.label);
  o.Str("digest", Hex(p.digest));
  o.Num("events", static_cast<double>(r.events_processed));
  o.Num("flows_completed", static_cast<double>(r.flows_completed));
  o.Num("flows_total", static_cast<double>(r.flows_total));
  o.Num("rows", static_cast<double>(p.rows));
  o.Num("drops", static_cast<double>(r.drops));
  o.Num("pause_frames", static_cast<double>(r.pause_frames));
  o.Num("resume_frames", static_cast<double>(r.resume_frames));
  o.Num("retransmits", static_cast<double>(r.retransmits));
  o.Num("out_of_order", static_cast<double>(r.out_of_order));
  o.Num("lhcs_triggers", static_cast<double>(r.lhcs_triggers));
  o.Num("asymmetric_acks", static_cast<double>(r.asymmetric_acks));
  o.Num("mean_slowdown", p.mean_slowdown);
  o.Num("pool_created", static_cast<double>(r.pool_packets_created));
  o.Num("pool_acquired", static_cast<double>(r.pool_packets_acquired));
  return o.str();
}

std::string NumArray(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v[i]);
    s += (i ? ", " : "") + std::string(buf);
  }
  return s + "]";
}

// Set-up replays per run: kMinSetupReplays before the repetitions, then
// more between them while replays stay under kSetupShare of the run.
constexpr int kMinSetupReplays = 9;
constexpr double kSetupShare = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string out = ".";
};

int Main(const Args& args) {
  const std::vector<WorkloadDef> defs = Workloads();
  const auto def_it =
      std::find_if(defs.begin(), defs.end(),
                   [&](const WorkloadDef& d) { return d.name == args.workload; });
  if (def_it == defs.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadDef& def = *def_it;
  const int threads = def.threads > 0 ? def.threads : HardwareThreads();
  const std::string out_dir = args.out + "/" + def.name;
  std::filesystem::remove_all(out_dir);

  // Inputs from the seed: the scenario seeds the repetitions cycle over
  // (the benchmark seed itself unless the workload pins its volume).
  std::vector<std::uint64_t> scenario_seeds = {args.seed};
  if (def.volume_tolerance > 0) {
    const ExperimentSpec probe = ExpandSweep(LoadSpec(args.root, def, {}))[0];
    scenario_seeds = PickScenarioSeeds(probe, args.seed, def.sub_seeds,
                                       def.volume_tolerance);
  }
  const auto overrides_for = [&](std::uint64_t scenario_seed) {
    return std::vector<std::string>{
        "scenario.seed=" + std::to_string(scenario_seed),
        "output.dir=" + out_dir};
  };
  const std::vector<std::string> extra = overrides_for(scenario_seeds[0]);
  const ExperimentSpec spec = LoadSpec(args.root, def, extra);
  const std::vector<ExperimentSpec> points = ExpandSweep(spec);

  // Set-up, replayed several times; each sample sums the workload's points.
  g_tracer.enabled = args.trace;
  std::vector<SetupTimes> setups;
  double setup_total = 0.0;
  int lanes = 1;
  const auto replay_setup = [&] {
    SetupTimes sum;
    const int span = g_tracer.Begin("bench.setup_replay", -1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      SetupTimes t;
      lanes = ReplaySetup(points[i], static_cast<int>(i), &t)->lanes;
      sum.Add(t);
    }
    g_tracer.End(span);
    setups.push_back(sum);
    setup_total += sum.total();
  };
  for (int r = 0; r < kMinSetupReplays; ++r) replay_setup();

  // The measured repetitions cycle over the scenario seeds. With tracing
  // on, whole cycles alternate between untraced and traced, so the
  // overhead compares the same inputs in the same process; traced
  // repetitions also collect PDES telemetry.
  const std::size_t cycle = scenario_seeds.size();
  std::vector<RepOutcome> reps;
  std::vector<std::uint64_t> rep_seed;
  std::vector<bool> rep_traced;
  std::vector<double> parse_s, outputs_s;
  CpuRotation cpus;
  const auto pinned = [&]() -> std::optional<std::size_t> {
    if (threads == 1) return reps.size();
    return std::nullopt;
  };
  const auto t_run = Clock::now();
  const std::size_t min_reps = (args.trace ? 2 : 1) * std::max<std::size_t>(cycle, 3);
  while (reps.size() < min_reps || SecondsSince(t_run) < args.seconds) {
    const bool traced = args.trace && (reps.size() / cycle) % 2 == 1;
    const std::uint64_t scenario_seed = scenario_seeds[reps.size() % cycle];
    std::vector<std::string> rep_extra = overrides_for(scenario_seed);
    if (traced) rep_extra.push_back("output.pdes_stats=true");
    const double probe_before = ProbeHostSpeed(cpus, pinned());
    g_tracer.enabled = traced;
    const int span = g_tracer.Begin("bench.workload_run", -1);
    RepOutcome rep = RunWorkload(args.root, def, rep_extra, threads,
                                 reps.empty());
    g_tracer.End(span);
    rep.probe = 0.5 * (probe_before + ProbeHostSpeed(cpus, pinned()));
    if (traced || !args.trace) {
      parse_s.push_back(rep.parse);
      outputs_s.push_back(rep.outputs);
    }
    rep_seed.push_back(scenario_seed);
    rep_traced.push_back(traced);
    reps.push_back(std::move(rep));
    // More set-up samples between repetitions, spread over the whole run
    // like the wall times, while set-up stays a small share of it.
    g_tracer.enabled = args.trace;
    while (setup_total < kSetupShare * SecondsSince(t_run)) replay_setup();
  }
  cpus.Unpin();

  // Determinism contract: the single-lane, single-thread run of the point
  // must produce the same FCT records and event count.
  std::vector<PointOutcome> reference_points;
  if (def.one_lane_reference) {
    std::vector<std::string> ref_extra = extra;  // later overrides win
    ref_extra.push_back("output.dir=" + out_dir + "_one_lane");
    ref_extra.push_back("scenario.exec_domains=1");
    const int span = g_tracer.Begin("bench.one_lane_reference", -1);
    RepOutcome ref = RunWorkload(args.root, def, ref_extra, 1, false);
    g_tracer.End(span);
    reference_points = std::move(ref.points);
  }

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  JsonObject o;
  o.Str("workload", def.name);
  o.Raw("seed", std::to_string(args.seed));
  std::string seeds_json = "[";
  for (std::size_t i = 0; i < cycle; ++i) {
    seeds_json += (i ? ", " : "") + std::to_string(scenario_seeds[i]);
  }
  o.Raw("scenario_seeds", seeds_json + "]");
  o.Num("threads", threads);
  o.Num("lanes", lanes);
  o.Num("num_flows", spec.wl.num_flows);
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total());
  o.Raw("setup_s", NumArray(setup_s));
  o.Num("peak_rss_mib", peak_rss_mib);
  std::string reps_json = "[";
  for (std::size_t r = 0; r < reps.size(); ++r) {
    JsonObject rj;
    rj.Raw("scenario_seed", std::to_string(rep_seed[r]));
    rj.Raw("traced", rep_traced[r] ? "true" : "false");
    rj.Num("wall_s", reps[r].wall);
    rj.Num("probe_s", reps[r].probe);
    std::string points_json = "[";
    for (std::size_t i = 0; i < reps[r].points.size(); ++i) {
      points_json += (i ? ", " : "") + PointJson(reps[r].points[i]);
    }
    rj.Raw("points", points_json + "]");
    reps_json += (r ? ", " : "") + rj.str();
  }
  o.Raw("reps", reps_json + "]");
  std::string ref_json = "[";
  for (std::size_t i = 0; i < reference_points.size(); ++i) {
    ref_json += (i ? ", " : "") + PointJson(reference_points[i]);
  }
  o.Raw("one_lane_reference", ref_json + "]");

  if (args.trace) {
    // Probes take their inputs from a fresh set-up of the first point
    // (built outside the trace; each probe records spans of its own).
    g_tracer.enabled = false;
    SetupTimes ignored;
    const std::unique_ptr<Fabric> fabric = ReplaySetup(points[0], -1, &ignored);
    g_tracer.enabled = true;
    const ExperimentSpec& last = points.back();
    const RepOutcome& first = reps.front();
    const ExperimentPointResult& r0 = first.points.back().result;
    std::size_t flows_per_point = 0;
    for (const PointOutcome& p : first.points) {
      flows_per_point = std::max(flows_per_point, p.result.flows_total);
    }
    JsonObject layer;
    layer.Num("sim.partition_s", MeanOf(setups, &SetupTimes::partition));
    layer.Num("net.build_s", MeanOf(setups, &SetupTimes::build));
    layer.Num("net.routes_s", MeanOf(setups, &SetupTimes::routes));
    layer.Num("net.seal_s", MeanOf(setups, &SetupTimes::seal));
    layer.Num("workload.generate_s", MeanOf(setups, &SetupTimes::generate));
    layer.Num("harness.parse_s", Median(parse_s));
    layer.Num("harness.outputs_s", Median(outputs_s));
    layer.Num("sim.ns_per_event",
              ProbeEventKernel(fabric->topo->net.num_nodes()));
    layer.Num("net.forward_ns", ProbeSwitchForward(last, *fabric));
    layer.Num("transport.ack_path_ns",
              ProbeAckPath(last, std::min<std::size_t>(flows_per_point, 65536)));
    layer.Num("cc.on_ack_ns.DCQCN", ProbeCcOnAck(last, CcMode::kDcqcn));
    layer.Num("cc.on_ack_ns.HPCC", ProbeCcOnAck(last, CcMode::kHpcc));
    layer.Num("cc.on_ack_ns.FNCC", ProbeCcOnAck(last, CcMode::kFncc));
    layer.Num("workload.next_ns",
              ProbeFlowSourceNext(last, *fabric, flows_per_point));
    layer.Num("stats.append_ns", ProbeFctAppend(last, first.records.back()));

    // Window telemetry from the first traced repetition (the last point).
    const PdesStats* stats = nullptr;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      if (rep_traced[r]) {
        stats = &reps[r].points.back().result.pdes_stats;
        break;
      }
    }
    int participants = 1;
    if (stats != nullptr && stats->participants > 0) {
      participants = stats->participants;
      std::uint64_t lane_windows = 0, steals = 0, spins = 0, sleeps = 0;
      std::uint64_t max_lane = 0, sum_lane = 0;
      for (const std::uint64_t v : stats->thread_lane_windows) lane_windows += v;
      for (const std::uint64_t v : stats->thread_steals) steals += v;
      for (const std::uint64_t v : stats->thread_barrier_spins) spins += v;
      for (const std::uint64_t v : stats->thread_barrier_sleeps) sleeps += v;
      for (const std::uint64_t v : stats->lane_events) {
        max_lane = std::max(max_lane, v);
        sum_lane += v;
      }
      const double mean_lane =
          static_cast<double>(sum_lane) /
          static_cast<double>(std::max<std::size_t>(stats->lane_events.size(), 1));
      layer.Num("exec.windows", static_cast<double>(stats->windows));
      layer.Num("exec.events_per_window",
                stats->windows ? static_cast<double>(stats->events) /
                                     static_cast<double>(stats->windows)
                               : 0.0);
      layer.Num("exec.lane_imbalance",
                mean_lane > 0 ? static_cast<double>(max_lane) / mean_lane : 1.0);
      layer.Num("exec.steal_share",
                lane_windows ? static_cast<double>(steals) /
                                   static_cast<double>(lane_windows)
                             : 0.0);
      layer.Num("exec.sleep_share",
                spins + sleeps ? static_cast<double>(sleeps) /
                                     static_cast<double>(spins + sleeps)
                               : 0.0);
    } else {
      // A single-lane point runs the serial engine: no windows, no
      // stealing, no barrier waits.
      layer.Num("exec.windows", static_cast<double>(r0.pdes_windows));
      layer.Num("exec.events_per_window", 0.0);
      layer.Num("exec.lane_imbalance", 1.0);
      layer.Num("exec.steal_share", 0.0);
      layer.Num("exec.sleep_share", 0.0);
    }
    layer.Num("exec.barrier_cycle_ns", ProbeBarrierCycle(participants));
    o.Raw("layers", layer.str());

    const std::map<std::string, double> self = g_tracer.SelfSecondsByLayer();
    JsonObject self_json;
    for (const auto& [name, s] : self) self_json.Num(name, s);
    o.Raw("self_s", self_json.str());
    const std::string trace_path = args.out + "/trace_" + def.name + "_seed" +
                                   std::to_string(args.seed) + ".json";
    if (!g_tracer.Write(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    o.Str("trace_file", trace_path);
    o.Num("spans", static_cast<double>(g_tracer.size()));
  }
  std::printf("%s\n", o.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--root") {
      args.root = value;
    } else if (key == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", key.c_str());
      return 2;
    }
  }
  try {
    return Main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
