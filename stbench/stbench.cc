// stbench: runs one benchmark workload for one seed and prints its
// measurements as one JSON object on the last line of stdout.
//
//   stbench --workload {bulk,churn,blockstore,ring} --seed N --seconds S
//           --trace {0,1}
//
// --trace 0 (end-to-end): cycles through the run's distinct seeded episodes
// (derived from N) until each has run and S host seconds of measured run
// time have passed. Every episode reports its host times (set-up, run,
// check); the simulated-time outcome (digest, latencies, stall, goodput) is
// aggregated over the distinct episodes, and a repeated episode must
// reproduce its first outcome exactly.
//
// --trace 1 (per layer): runs the first episode once untraced and once
// traced.
// The traced run steps the event loop itself (EventLoop::step), times every
// step, and attributes it to a layer by the public taps and stats() counters
// that moved during it. `ring` instead compares the same seed at 1 and 2
// worker threads. Everything is measured from outside the simulator: calls
// into public functions, public stats(), public taps.
//
// run.py builds this binary, aggregates its output and prints the result
// the benchmark contract asks for; README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/block_server.h"
#include "app/client.h"
#include "app/server.h"
#include "harness/block_workload.h"
#include "harness/invariants.h"
#include "harness/topology.h"
#include "harness/workload.h"

namespace sttcp::stbench {
namespace {

using harness::BlockWorkload;
using harness::BlockWorkloadConfig;
using harness::CellConfig;
using harness::HostOptions;
using harness::InvariantChecker;
using harness::Topology;
using harness::TopologyBuilder;
using harness::TopologyConfig;
using harness::Violation;
using harness::Workload;
using harness::WorkloadConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload parameters ------------------------------------------------------
// One place for every size that defines a workload; README.md and
// predictions.json quote these.

constexpr int kBulkClients = 8;
constexpr std::uint64_t kBulkFileBytes = 4ull << 20;  // per client, +-0.5 MiB by seed
constexpr std::int64_t kBulkStartSpreadMs = 500;      // client start offsets
constexpr std::int64_t kBulkCrashMs = 1500;           // +-500 ms by seed
constexpr std::uint64_t kBulkLatChunk = 16 * 1024;  // latency sample unit

constexpr std::size_t kChurnClients = 2500;
constexpr std::int64_t kChurnSeconds = 3;  // generation window; crash at a third

constexpr std::size_t kBlockClients = 16;
constexpr std::uint32_t kBlockOpsPerSession = 1000;
constexpr std::int64_t kBlockSeconds = 3;

constexpr int kRingShards = 4;
constexpr std::size_t kRingClientsPerShard = 128;
constexpr std::int64_t kRingMillis = 400;
constexpr int kRingThreads = 2;

// A p99 needs at least ten samples beyond it.
constexpr std::uint64_t kMinTailSamples = 1000;
// Distinct seeded episodes per run (derived from --seed): simulated-time
// metrics aggregate over all of them, so one seed's luck (say, where the
// crash falls in the heartbeat period) does not decide a run. bulk's
// failover glitch is bimodal (takeover retransmits at once, or the next
// RTO does), so it averages over more failovers.
int episodes_per_run(const std::string& workload) { return workload == "bulk" ? 32 : 8; }

// --- host speed ---------------------------------------------------------------

/// Fixed reference work, independent of the simulator: a miniature
/// discrete-event loop (binary-heap queue, std::function handlers, a hash
/// map of per-connection buffers, memset and a 16-bit checksum per event),
/// the allocation- and pointer-heavy mix the simulator itself runs. Its
/// host time tracks how fast this machine runs such code right now.
double calibrate() {
  const auto t0 = Clock::now();
  struct Ev {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Ev& o) const { return at > o.at; }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> q;
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> conns;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) q.push({i, i});
  std::vector<std::function<void(std::uint32_t)>> handlers;
  for (std::uint32_t h = 0; h < 4; ++h) {
    handlers.emplace_back([&conns, &sum, h](std::uint32_t id) {
      std::vector<std::uint8_t>& buf = conns[id % 3000];
      buf.resize(200 + (id * 7 + h) % 1300);
      std::memset(buf.data(), static_cast<int>(id), buf.size());
      std::uint32_t c = 0;
      for (std::size_t k = 0; k + 1 < buf.size(); k += 2) c += (buf[k] << 8) | buf[k + 1];
      sum += c;
    });
  }
  for (int n = 0; n < 60000; ++n) {
    const Ev e = q.top();
    q.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    handlers[x & 3](e.id);
    q.push({e.at + 1 + (x >> 40) % 1000, static_cast<std::uint32_t>(x % 100000)});
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return seconds_since(t0);
}

/// The calibration kernel on `threads` threads at once (this one and
/// threads - 1 helpers); the slowest one.
double calibrate_on(int threads) {
  std::vector<double> t(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) {
    pool.emplace_back([&t, i] { t[static_cast<std::size_t>(i)] = calibrate(); });
  }
  t[0] = calibrate();
  for (std::thread& th : pool) th.join();
  return *std::max_element(t.begin(), t.end());
}

// --- percentiles ----------------------------------------------------------------

/// Exact percentile of raw samples, linearly interpolated between ranks.
double sample_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Percentile of an obs::Histogram that moves continuously with the data.
/// Histogram::percentile returns the lower bound of a 1/8-octave bucket, so
/// a 1% shift that crosses a bucket edge would read as a 12.5% step. Here
/// the samples of the containing bucket are taken as evenly spread over the
/// bucket's width, and the target rank is interpolated among them. The
/// value is exact below 8 and always lies within one bucket width (12.5% of
/// the value) of the true sample; it moves smoothly as samples move.
double hist_percentile(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0;
  const std::vector<std::uint64_t>& b = h.buckets();
  const double rank = q * static_cast<double>(h.count() - 1);
  double seen = 0;
  for (int i = 0; i < obs::Histogram::kBucketCount; ++i) {
    const auto n = static_cast<double>(b[static_cast<std::size_t>(i)]);
    if (n == 0) continue;
    if (seen + n > rank) {
      double lo = static_cast<double>(obs::Histogram::bucket_lower_bound(i));
      double hi = i + 1 < obs::Histogram::kBucketCount
                      ? static_cast<double>(obs::Histogram::bucket_lower_bound(i + 1))
                      : lo + 1;
      lo = std::max(lo, static_cast<double>(h.min()));
      hi = std::min(hi, static_cast<double>(h.max()) + 1);
      const double v = lo + (rank - seen + 0.5) / n * (hi - lo);
      return std::clamp(v, static_cast<double>(h.min()), static_cast<double>(h.max()));
    }
    seen += n;
  }
  return static_cast<double>(h.max());
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// Benchmark-side input generator (splitmix64): the seed picks the inputs
/// the benchmark hands the simulator, e.g. bulk's file size and crash time.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

// --- results --------------------------------------------------------------------

/// What a client sees in one episode, on the simulated clock: identical for
/// every episode of one seed.
struct Outcome {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  double ops = 0;  // verified client operations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  obs::Histogram lat_us;  // per-operation latency
  double stall_ms = 0;
  double payload_bytes = 0;  // verified payload, for goodput
  double sim_s = 0;          // simulated span the payload moved in
  std::uint64_t events = 0;  // executed in the timed run phase
  std::vector<std::string> violations;
};

struct Episode {
  double setup_s = 0;
  double run_s = 0;
  double check_s = 0;
  double cal_s = 0;
  Outcome out;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

// --- workloads --------------------------------------------------------------------

TopologyConfig base_config(std::uint64_t seed, bool metrics, bool sttcp) {
  TopologyConfig tc;
  tc.seed = seed;
  tc.enable_metrics = metrics;
  tc.enable_sttcp = sttcp;
  // Thousands of connections hold more in-flight data per heartbeat period
  // than the single-download default; same settings as bench_capacity.
  tc.sttcp.hold_buffer_capacity = 32 * 1024 * 1024;
  tc.sttcp.serial_max_records = 32;
  return tc;
}

/// The paper's flat LAN: switch, client, one ST-TCP pair, gateway.
std::unique_ptr<Topology> build_flat(const TopologyConfig& tc) {
  TopologyBuilder b(tc);
  const int lan = b.add_switch("switch");
  HostOptions client_opt;
  client_opt.with_stack = true;
  b.add_host("client", {10, 0, 0, 1}, lan, client_opt);
  b.add_cell(lan, {});
  b.add_host("gateway", {10, 0, 0, 254}, lan);
  return b.build();
}

void append(std::vector<std::string>& out, const std::vector<Violation>& v) {
  for (const Violation& x : v) out.push_back(x.str());
}

/// Longest gap in client-visible progress on one switch: the time between
/// consecutive frames carrying TCP payload to `client`, seen at the switch's
/// ingress tap (chained in front of the invariant checker's) with exact
/// simulated timestamps. Gaps count from the first such frame to the end of
/// the generation window, so neither start-up nor the drain tail's
/// stragglers count as a stall.
class StallProbe {
 public:
  StallProbe(net::EthernetSwitch& sw, net::Ipv4Addr client, sim::SimTime end)
      : client_(client.value()), end_(end), prev_(sw.frame_tap()) {
    sw.set_frame_tap([this](sim::SimTime at, const net::Frame& f) {
      on_frame(at, f);
      if (prev_) prev_(at, f);
    });
  }
  StallProbe(const StallProbe&) = delete;
  StallProbe& operator=(const StallProbe&) = delete;

  sim::Duration max_gap() const { return max_gap_; }

 private:
  void on_frame(sim::SimTime at, const net::Frame& f) {
    // Ethernet(14) | IPv4, protocol TCP, to the client | TCP with payload.
    if (at > end_ || f.size() < 14 + 20 + 20 || f[12] != 0x08 || f[13] != 0x00 ||
        f[23] != 6) {
      return;
    }
    const std::uint32_t dst = (static_cast<std::uint32_t>(f[30]) << 24) |
                              (static_cast<std::uint32_t>(f[31]) << 16) |
                              (static_cast<std::uint32_t>(f[32]) << 8) | f[33];
    const std::size_t ip_len = (static_cast<std::size_t>(f[16]) << 8) | f[17];
    const std::size_t ihl = static_cast<std::size_t>(f[14] & 0x0f) * 4;
    if (dst != client_ || f.size() < 14 + ihl + 20) return;
    const std::size_t tcp_hdr = static_cast<std::size_t>(f[14 + ihl + 12] >> 4) * 4;
    if (ip_len <= ihl + tcp_hdr) return;  // pure ACK / SYN / FIN
    if (seen_) max_gap_ = std::max(max_gap_, at - last_);
    last_ = at;
    seen_ = true;
  }

  std::uint32_t client_;
  sim::SimTime end_;
  net::EthernetSwitch::FrameTap prev_;
  bool seen_ = false;
  sim::SimTime last_ = sim::SimTime::zero();
  sim::Duration max_gap_ = sim::Duration::zero();
};

/// One built world of one workload. Construction is the set-up phase.
class Bench {
 public:
  Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;
  virtual ~Bench() = default;
  Topology& topo() { return *topo_; }

  virtual void start() = 0;
  /// Generation window: no new operations start after it.
  virtual sim::Duration duration() const = 0;
  virtual bool drained() const = 0;
  /// Correctness gate: invariant checker plus workload-level exactness.
  virtual void check(Outcome& out) = 0;
  /// Simulated-time outcome. The base sets `stall_ms`: the median over
  /// the probed client hosts.
  virtual void collect(Outcome& out) {
    std::vector<double> gaps;
    for (const auto& p : probes_) gaps.push_back(p->max_gap().to_millis());
    out.stall_ms = sample_percentile(gaps, 0.5);
  }
  /// Simulated time the primary was crashed at (zero = no crash).
  virtual sim::Duration crash_at() const { return sim::Duration::zero(); }

  std::uint64_t events() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < topo_->shard_count(); ++i) {
      n += topo_->world(i).loop().events_executed();
    }
    return n;
  }

 protected:
  /// Watch the progress of plain host `host` at its switch during the
  /// generation window.
  void add_probe(std::size_t host) {
    const Topology::HostEntry& h = topo_->host(host);
    probes_.push_back(std::make_unique<StallProbe>(
        topo_->ethernet_switch(static_cast<std::size_t>(h.switch_id)), h.ip,
        topo_->world().now() + duration()));
  }

  void schedule_crash(sim::Duration at) {
    topo_->world().loop().schedule_after(at, [this] {
      topo_->world().trace().record("harness", "fault_injected", "crash:primary");
      topo_->cell(0).primary().crash("injected HW/OS crash");
    });
  }

  std::vector<std::unique_ptr<StallProbe>> probes_;  // outlive the switches' taps
  std::unique_ptr<Topology> topo_;
};

// bulk: Demo 1 at scale. A few long downloads through one tapped pair on the
// 100 Mbps LAN; the primary is crashed mid-transfer.
class BulkBench final : public Bench {
 public:
  BulkBench(std::uint64_t seed, bool metrics) {
    InputRng in(seed);
    file_bytes_ = kBulkFileBytes + static_cast<std::uint64_t>(in.between(-8, 8)) * 64 * 1024;
    crash_at_ = sim::Duration::millis(kBulkCrashMs + in.between(-500, 500));
    for (int i = 0; i < kBulkClients; ++i) {
      start_at_.push_back(sim::Duration::micros(in.between(0, kBulkStartSpreadMs * 1000)));
    }
    topo_ = build_flat(base_config(seed, metrics, true));
    harness::Cell& cell = topo_->cell(0);
    p_app_ = std::make_unique<app::FileServer>(cell.primary_stack(),
                                               cell.service_port(), file_bytes_);
    b_app_ = std::make_unique<app::FileServer>(cell.backup_stack(),
                                               cell.service_port(), file_bytes_);
    InvariantChecker::Options iopt;
    iopt.expected_bytes = file_bytes_;
    checker_ = std::make_unique<InvariantChecker>(*topo_, iopt);
    app::DownloadClient::Options copt;
    copt.expected_bytes = file_bytes_;
    for (int i = 0; i < kBulkClients; ++i) {
      clients_.push_back(std::make_unique<app::DownloadClient>(
          *topo_->host(0).stack, topo_->host(0).ip,
          std::vector<net::SocketAddr>{cell.connect_addr()}, copt));
    }
  }

  void start() override {
    schedule_crash(crash_at());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      app::DownloadClient* c = clients_[i].get();
      topo_->world().loop().schedule_after(start_at_[i], [c] { c->start(); });
    }
  }
  sim::Duration duration() const override { return sim::Duration::zero(); }
  bool drained() const override {
    return std::all_of(clients_.begin(), clients_.end(),
                       [](const auto& c) { return c->complete(); });
  }
  sim::Duration crash_at() const override { return crash_at_; }

  void check(Outcome& out) override {
    for (const auto& c : clients_) append(out.violations, checker_->check(*c));
  }

  void collect(Outcome& out) override {
    std::vector<double> stalls_ms;
    std::uint64_t bytes = 0;
    sim::SimTime first = sim::SimTime::never();
    sim::SimTime last = sim::SimTime::zero();
    for (const auto& c : clients_) {
      const bool good = c->complete() && !c->corrupt() && c->connection_failures() == 0;
      const std::uint64_t verified = good ? c->received() : 0;
      bytes += verified;
      out.attempted += (file_bytes_ + (1 << 20) - 1) >> 20;
      out.failed += (file_bytes_ - verified + (1 << 20) - 1) >> 20;
      stalls_ms.push_back(c->max_stall().to_millis());
      first = std::min(first, c->started_at());
      last = std::max(last, c->completed_at());
      // Per-chunk delivery time: when the cumulative byte count crossed each
      // kBulkLatChunk boundary, minus when it crossed the previous one.
      sim::SimTime prev = c->started_at();
      std::uint64_t next = kBulkLatChunk;
      for (const app::DownloadClient::Sample& s : c->timeline()) {
        out.digest = fnv(fnv(out.digest, static_cast<std::uint64_t>(s.at.ns())),
                         s.total_bytes);
        while (s.total_bytes >= next) {
          out.lat_us.record(static_cast<std::uint64_t>((s.at - prev).ns() / 1000));
          prev = s.at;
          next += kBulkLatChunk;
        }
      }
      out.digest = fnv(out.digest, static_cast<std::uint64_t>(c->max_stall().ns()));
      out.digest = fnv(out.digest, static_cast<std::uint64_t>(c->connection_failures()));
    }
    out.ops = static_cast<double>(bytes) / static_cast<double>(1 << 20);
    out.stall_ms = sample_percentile(stalls_ms, 0.5);
    out.payload_bytes = static_cast<double>(bytes);
    out.sim_s = (last - first).to_millis() / 1000.0;
  }

 private:
  std::uint64_t file_bytes_ = 0;
  sim::Duration crash_at_;
  std::vector<sim::Duration> start_at_;
  std::unique_ptr<app::FileServer> p_app_, b_app_;
  std::unique_ptr<InvariantChecker> checker_;
  std::vector<std::unique_ptr<app::DownloadClient>> clients_;
};

WorkloadConfig churn_config(std::size_t clients, sim::Duration duration) {
  WorkloadConfig wc;
  wc.arrivals = WorkloadConfig::Arrivals::kClosedLoop;
  wc.closed_clients = clients;
  wc.max_concurrent = clients;
  wc.think_mean = sim::Duration::millis(20);
  wc.flow_min_bytes = 4 * 1024;
  wc.flow_max_bytes = 64 * 1024;
  wc.duration = duration;
  return wc;
}

void workload_gate(const Workload& wl, const std::string& who, Outcome& out) {
  const Workload::Stats& s = wl.stats();
  out.attempted += s.offered;
  out.failed += s.failed + s.shed + (s.started - s.completed - s.failed);
  if (!wl.drained()) out.violations.push_back(who + ": workload did not drain");
  if (s.failed + s.shed + s.corrupt + s.resets != 0 || s.completed != s.started) {
    out.violations.push_back(who + ": flows failed/shed/corrupt/reset");
  }
}

// churn: a closed-loop population larger than the 2,048-slot demux cache,
// small heavy-tailed flows, primary crashed mid-run. The 100 Mbps LAN is the
// bottleneck (the paper's network): this is the overload case.
class ChurnBench final : public Bench {
 public:
  ChurnBench(std::uint64_t seed, bool metrics) {
    topo_ = build_flat(base_config(seed, metrics, true));
    harness::Cell& cell = topo_->cell(0);
    p_app_ = std::make_unique<app::SizedServer>(cell.primary_stack(), cell.service_port());
    b_app_ = std::make_unique<app::SizedServer>(cell.backup_stack(), cell.service_port());
    checker_ = std::make_unique<InvariantChecker>(*topo_, InvariantChecker::Options{});
    wl_ = std::make_unique<Workload>(
        topo_->world(), *topo_->host(0).stack, topo_->host(0).ip, cell.connect_addr(),
        churn_config(kChurnClients, sim::Duration::seconds(kChurnSeconds)));
  }

  void start() override {
    schedule_crash(crash_at());
    add_probe(0);
    wl_->start();
  }
  sim::Duration duration() const override { return wl_->config().duration; }
  bool drained() const override { return wl_->drained(); }
  // Early enough that takeover (about 1.7 s after the crash at this load)
  // lands inside the generation window.
  sim::Duration crash_at() const override { return duration() / 3; }

  void check(Outcome& out) override {
    append(out.violations, checker_->check(*wl_));
    workload_gate(*wl_, "churn", out);
  }
  void collect(Outcome& out) override {
    Bench::collect(out);
    out.digest = fnv(out.digest, wl_->digest());
    out.ops = static_cast<double>(wl_->stats().completed);
    out.lat_us = wl_->fct_us();
    out.payload_bytes = static_cast<double>(wl_->stats().bytes_received);
  }

 private:
  std::unique_ptr<app::SizedServer> p_app_, b_app_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<Workload> wl_;
};

// blockstore: a healthy replicated BlockStoreServer pair with record/replay
// decision log and output commit, ~16 envelope clients, GET/PUT mix. With
// `sttcp` false the primary serves alone and its log commits at once (the
// replication-delay reference of the traced run).
class BlockBench final : public Bench {
 public:
  BlockBench(std::uint64_t seed, bool metrics, bool sttcp) {
    topo_ = build_flat(base_config(seed, metrics, sttcp));
    harness::Cell& cell = topo_->cell(0);
    using Mode = sttcp::DecisionLog::Mode;
    p_app_ = std::make_unique<app::BlockStoreServer>(
        cell.primary_stack(), cell.service_port(), app::BlockStoreConfig{}, Mode::kRecord);
    if (sttcp) {
      b_app_ = std::make_unique<app::BlockStoreServer>(
          cell.backup_stack(), cell.service_port(), app::BlockStoreConfig{}, Mode::kReplay);
      cell.primary_endpoint()->set_decision_log(&p_app_->decisions());
      cell.backup_endpoint()->set_decision_log(&b_app_->decisions());
    } else {
      p_app_->decisions().set_standalone(true, /*retain=*/false);
    }
    checker_ = std::make_unique<InvariantChecker>(*topo_, InvariantChecker::Options{});
    BlockWorkloadConfig wc;
    wc.clients = kBlockClients;
    wc.ops_per_session = kBlockOpsPerSession;
    wc.duration = sim::Duration::seconds(kBlockSeconds);
    wl_ = std::make_unique<BlockWorkload>(topo_->world(), *topo_->host(0).stack,
                                          topo_->host(0).ip, cell.connect_addr(), wc);
  }

  void start() override {
    add_probe(0);
    wl_->start();
  }
  sim::Duration duration() const override { return wl_->config().duration; }
  bool drained() const override { return wl_->drained(); }

  void check(Outcome& out) override {
    append(out.violations, checker_->check(*wl_));
    const BlockWorkload::Stats& s = wl_->stats();
    const std::uint64_t bad = s.bad_status + s.mismatches + s.protocol_errors +
                              (s.requests - s.responses);
    out.attempted += s.requests;
    out.failed += bad;
    if (bad + s.failed + s.resets != 0 || !wl_->drained()) {
      out.violations.push_back("blockstore: failed/reset/undrained or inexact response");
    }
    if (b_app_ != nullptr && b_app_->store_stats().replay_mismatch != 0) {
      out.violations.push_back("blockstore: backup replay mismatch");
    }
  }
  void collect(Outcome& out) override {
    Bench::collect(out);
    const BlockWorkload::Stats& s = wl_->stats();
    out.digest = fnv(fnv(out.digest, wl_->digest()), p_app_->tx_digest());
    out.ops = static_cast<double>(s.responses);
    out.lat_us = wl_->request_us();
    // Block payload carried: GET data and acknowledged PUT data (server
    // counts), less the NotFound answers the client predicted.
    const app::BlockStoreServer::StoreStats& ss = p_app_->store_stats();
    const double blocks = static_cast<double>(ss.gets + ss.puts) -
                          static_cast<double>(s.expected_misses);
    out.payload_bytes = blocks * wl_->config().block_size;
  }

  app::BlockStoreServer& primary_app() { return *p_app_; }
  const BlockWorkload& workload() const { return *wl_; }

 private:
  std::unique_ptr<app::BlockStoreServer> p_app_, b_app_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<BlockWorkload> wl_;
};

// ring: bench_capacity Part 4's 4-shard ring on the parallel executor, no
// crash; every fourth flow crosses a trunk to the next shard.
class RingBench final : public Bench {
 public:
  RingBench(std::uint64_t seed, bool metrics, int threads) {
    TopologyConfig tc = base_config(seed, metrics, true);
    tc.link_bandwidth_bps = 1'000'000'000;
    TopologyBuilder b(tc);
    std::vector<int> routers;
    for (int k = 0; k < kRingShards; ++k) {
      if (k > 0) b.begin_shard();
      const auto sub = static_cast<std::uint8_t>(k + 1);
      const int lan = b.add_switch("shard" + std::to_string(k) + "lan");
      HostOptions copt;
      copt.with_stack = true;
      if (k > 0) copt.power_controller = b.add_power_controller();
      b.add_host("c" + std::to_string(k), {10, sub, 0, 1}, lan, copt);
      CellConfig cc;
      cc.name = "s" + std::to_string(k);
      cc.primary_ip = {10, sub, 0, 2};
      cc.backup_ip = {10, sub, 0, 3};
      cc.service_ip = {10, sub, 0, 100};
      cc.gateway_ip = {10, sub, 0, 254};
      cc.power_controller = copt.power_controller;
      b.add_cell(lan, cc);
      routers.push_back(b.add_router("r" + std::to_string(k)));
      b.connect_router(routers.back(), lan, {10, sub, 0, 254});
    }
    std::vector<std::pair<int, int>> ports;
    for (int k = 0; k < kRingShards; ++k) {
      const auto tsub = static_cast<std::uint8_t>(200 + k);
      ports.push_back(b.add_trunk(routers[static_cast<std::size_t>(k)],
                                  routers[static_cast<std::size_t>((k + 1) % kRingShards)],
                                  {10, tsub, 0, 1}, {10, tsub, 0, 2}));
    }
    topo_ = b.build();
    for (int k = 0; k < kRingShards; ++k) {
      const int nk = (k + 1) % kRingShards;
      const auto tsub = static_cast<std::uint8_t>(200 + k);
      const auto [pa, pb] = ports[static_cast<std::size_t>(k)];
      topo_->router(static_cast<std::size_t>(k))
          .add_route({{10, static_cast<std::uint8_t>(nk + 1), 0, 0}, 24, pa, {10, tsub, 0, 2}});
      topo_->router(static_cast<std::size_t>(nk))
          .add_route({{10, static_cast<std::uint8_t>(k + 1), 0, 0}, 24, pb, {10, tsub, 0, 1}});
    }
    topo_->set_threads(threads);

    for (int k = 0; k < kRingShards; ++k) {
      harness::Cell& cell = topo_->cell(static_cast<std::size_t>(k));
      servers_.push_back(
          std::make_unique<app::SizedServer>(cell.primary_stack(), cell.service_port()));
      servers_.push_back(
          std::make_unique<app::SizedServer>(cell.backup_stack(), cell.service_port()));
      InvariantChecker::Options iopt;
      iopt.cell = k;
      checkers_.push_back(std::make_unique<InvariantChecker>(*topo_, iopt));
      WorkloadConfig wc =
          churn_config(kRingClientsPerShard, sim::Duration::millis(kRingMillis));
      const net::SocketAddr own = cell.connect_addr();
      const net::SocketAddr next =
          topo_->cell(static_cast<std::size_t>((k + 1) % kRingShards)).connect_addr();
      wc.target_for = [own, next](std::uint64_t flow_id, std::size_t) {
        return flow_id % 4 == 3 ? next : own;
      };
      Topology::HostEntry& client = topo_->host(static_cast<std::size_t>(k));
      loads_.push_back(std::make_unique<Workload>(
          topo_->world(static_cast<std::size_t>(k)), *client.stack, client.ip, own, wc));
    }
  }

  void start() override {
    for (std::size_t k = 0; k < loads_.size(); ++k) {
      add_probe(k);
      loads_[k]->start();
    }
  }
  sim::Duration duration() const override { return loads_.front()->config().duration; }
  bool drained() const override {
    return std::all_of(loads_.begin(), loads_.end(),
                       [](const auto& wl) { return wl->drained(); });
  }

  void check(Outcome& out) override {
    for (std::size_t k = 0; k < loads_.size(); ++k) {
      append(out.violations, checkers_[k]->check(*loads_[k]));
      workload_gate(*loads_[k], "ring shard " + std::to_string(k), out);
    }
  }
  void collect(Outcome& out) override {
    Bench::collect(out);
    for (const auto& wl : loads_) {
      out.digest = fnv(out.digest, wl->digest());
      out.ops += static_cast<double>(wl->stats().completed);
      out.payload_bytes += static_cast<double>(wl->stats().bytes_received);
      out.lat_us.merge(wl->fct_us());
    }
  }

 private:
  std::vector<std::unique_ptr<app::SizedServer>> servers_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::vector<std::unique_ptr<Workload>> loads_;
};

struct Spec {
  std::string workload;
  std::uint64_t seed = 1;
  bool metrics = false;
  bool sttcp = true;  // blockstore only
  int threads = kRingThreads;  // ring only
};

std::unique_ptr<Bench> make_bench(const Spec& s) {
  if (s.workload == "bulk") return std::make_unique<BulkBench>(s.seed, s.metrics);
  if (s.workload == "churn") return std::make_unique<ChurnBench>(s.seed, s.metrics);
  if (s.workload == "blockstore") {
    return std::make_unique<BlockBench>(s.seed, s.metrics, s.sttcp);
  }
  if (s.workload == "ring") return std::make_unique<RingBench>(s.seed, s.metrics, s.threads);
  throw std::invalid_argument("unknown workload: " + s.workload);
}

// --- tracing ----------------------------------------------------------------------

/// Host time of the traced run, by layer. A step is one executed event; it
/// counts toward every layer whose tap fired or whose counters moved in it.
/// Layers nested inside one event (the app and sttcp callbacks inside a TCP
/// receive) cannot be told apart from outside and land in the tcp rx rows.
struct StepTrace {
  struct Bin {
    std::uint64_t steps = 0;
    double ns = 0;
    double ns_per_step() const { return steps ? ns / static_cast<double>(steps) : 0; }
  };
  Bin all, switch_fwd, server_rx, client_rx, hb;
  std::uint64_t pending_peak = 0;
  std::size_t conns_peak = 0;
};

/// Frame counts at the switches' ingress taps (chained in front of the
/// invariant checker's tap, which keeps working).
struct SwitchTap {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hb_frames = 0;
  std::uint64_t hb_bytes = 0;
};

void install_switch_taps(Topology& topo, std::vector<SwitchTap>& taps) {
  taps.assign(topo.switch_count(), {});
  const std::uint16_t hb_port = topo.config().sttcp.hb_port;
  for (std::size_t i = 0; i < topo.switch_count(); ++i) {
    net::EthernetSwitch& sw = topo.ethernet_switch(i);
    net::EthernetSwitch::FrameTap prev = sw.frame_tap();
    SwitchTap* t = &taps[i];
    sw.set_frame_tap([prev, t, hb_port](sim::SimTime at, const net::Frame& f) {
      ++t->frames;
      t->bytes += f.size();
      // Ethernet(14) | IPv4 (IHL) | UDP dst port: the heartbeat channel.
      if (f.size() >= 14 + 20 + 8 && f[12] == 0x08 && f[13] == 0x00 && f[23] == 17) {
        const std::size_t udp = 14 + static_cast<std::size_t>(f[14] & 0x0f) * 4;
        if (f.size() >= udp + 4 &&
            ((static_cast<std::uint16_t>(f[udp + 2]) << 8) | f[udp + 3]) == hb_port) {
          ++t->hb_frames;
          t->hb_bytes += f.size();
        }
      }
      if (prev) prev(at, f);
    });
  }
}

/// Every TCP stack of the topology: plain hosts' and cells' members'.
struct Stacks {
  std::vector<tcp::TcpStack*> clients, servers;
  std::vector<tcp::TcpStack*> all() const {
    std::vector<tcp::TcpStack*> v = clients;
    v.insert(v.end(), servers.begin(), servers.end());
    return v;
  }
};

Stacks stacks_of(Topology& topo) {
  Stacks s;
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    if (topo.host(i).stack) s.clients.push_back(topo.host(i).stack.get());
  }
  for (std::size_t k = 0; k < topo.cell_count(); ++k) {
    s.servers.push_back(&topo.cell(k).primary_stack());
    s.servers.push_back(&topo.cell(k).backup_stack());
  }
  return s;
}

std::vector<sttcp::StTcpEndpoint*> endpoints_of(Topology& topo) {
  std::vector<sttcp::StTcpEndpoint*> v;
  for (std::size_t k = 0; k < topo.cell_count(); ++k) {
    for (sttcp::StTcpEndpoint* ep :
         {topo.cell(k).primary_endpoint(), topo.cell(k).backup_endpoint()}) {
      if (ep != nullptr) v.push_back(ep);
    }
  }
  return v;
}

std::uint64_t segments_in(const std::vector<tcp::TcpStack*>& v) {
  std::uint64_t n = 0;
  for (const tcp::TcpStack* s : v) n += s->stats().segments_in;
  return n;
}

std::uint64_t hb_activity(const std::vector<sttcp::StTcpEndpoint*>& eps) {
  std::uint64_t n = 0;
  for (const sttcp::StTcpEndpoint* ep : eps) {
    const sttcp::StTcpEndpoint::Stats& s = ep->stats();
    n += s.hb_sent + s.decision_hb_sent + s.hb_received_ip + s.hb_received_serial;
  }
  return n;
}

/// Advances a Bench through simulated time, either with Topology::run_for
/// (untraced) or by stepping shard 0's loop one event at a time (traced,
/// single-world only).
class Driver {
 public:
  static constexpr sim::Duration kShardSample = sim::Duration::millis(10);

  Driver(Bench& b, StepTrace* trace, const std::vector<SwitchTap>* taps)
      : b_(b), trace_(trace), taps_(taps), stacks_(stacks_of(b.topo())),
        eps_(endpoints_of(b.topo())) {}

  void advance(sim::Duration d) { run_to(now() + d); }

 private:
  sim::SimTime now() { return b_.topo().world().now(); }

  void run_to(sim::SimTime t) {
    Topology& topo = b_.topo();
    if (trace_ == nullptr) {
      topo.run_for(t - now());
      return;
    }
    if (topo.shard_count() > 1) {
      // The executor cannot be stepped from outside: sample between chunks.
      while (now() < t) {
        topo.run_for(std::min(t - now(), kShardSample));
        sample();
      }
      return;
    }
    sim::EventLoop& loop = topo.world().loop();
    while (loop.next_event_at() <= t) {
      const std::uint64_t sw0 = switch_frames();
      const std::uint64_t srv0 = segments_in(stacks_.servers);
      const std::uint64_t cli0 = segments_in(stacks_.clients);
      const std::uint64_t hb0 = hb_activity(eps_);
      const auto t0 = Clock::now();
      loop.step();
      const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      add(trace_->all, ns);
      if (switch_frames() != sw0) add(trace_->switch_fwd, ns);
      if (segments_in(stacks_.servers) != srv0) add(trace_->server_rx, ns);
      if (segments_in(stacks_.clients) != cli0) add(trace_->client_rx, ns);
      if (hb_activity(eps_) != hb0) add(trace_->hb, ns);
      sample();
    }
    loop.run_until(t);  // advance the clock to t; no event is due before it
  }

  static void add(StepTrace::Bin& b, double ns) {
    ++b.steps;
    b.ns += ns;
  }

  std::uint64_t switch_frames() const {
    std::uint64_t n = 0;
    for (const SwitchTap& t : *taps_) n += t.frames;
    return n;
  }

  void sample() {
    std::uint64_t pending = 0;
    for (std::size_t i = 0; i < b_.topo().shard_count(); ++i) {
      pending += b_.topo().world(i).loop().pending();
    }
    std::size_t conns = 0;
    for (const tcp::TcpStack* s : stacks_.all()) conns += s->connection_count();
    trace_->pending_peak = std::max<std::uint64_t>(trace_->pending_peak, pending);
    trace_->conns_peak = std::max(trace_->conns_peak, conns);
  }

  Bench& b_;
  StepTrace* trace_;
  const std::vector<SwitchTap>* taps_;
  Stacks stacks_;
  std::vector<sttcp::StTcpEndpoint*> eps_;
};

// Drain bound after the generation window, and the quiet margin that lets
// TIME_WAIT (2 x MSL) empty the tables before the memory audit.
constexpr int kDrainPolls = 600;
constexpr sim::Duration kDrainPoll = sim::Duration::millis(100);
constexpr sim::Duration kQuiet = sim::Duration::seconds(3);

/// What a traced episode leaves behind for the per-layer metrics.
struct TracedWorld {
  std::unique_ptr<Bench> bench;
  std::vector<SwitchTap> taps;
  StepTrace trace;
  double check_s = 0;
};

Episode run_episode(const Spec& spec, TracedWorld* traced) {
  Episode ep;
  // Calibrate on as many threads as the workload runs: a parallel run is
  // as fast as its slowest worker.
  const int cal_threads = spec.workload == "ring" ? spec.threads : 1;
  ep.cal_s = calibrate_on(cal_threads);
  const auto t0 = Clock::now();
  std::unique_ptr<Bench> b = make_bench(spec);
  ep.setup_s = seconds_since(t0);

  std::vector<SwitchTap> taps;
  if (traced != nullptr) install_switch_taps(b->topo(), taps);
  Driver d(*b, traced != nullptr ? &traced->trace : nullptr, &taps);

  const std::uint64_t ev0 = b->events();
  const sim::SimTime start = b->topo().world().now();
  const auto t1 = Clock::now();
  b->start();
  d.advance(b->duration());
  for (int i = 0; i < kDrainPolls && !b->drained(); ++i) d.advance(kDrainPoll);
  ep.run_s = seconds_since(t1);
  ep.out.events = b->events() - ev0;
  ep.out.sim_s = (b->topo().world().now() - start).to_millis() / 1000.0;
  if (!b->drained()) ep.out.violations.push_back("run did not drain");

  // The quiet margin moves little traffic; one thread spares the sharded
  // world thousands of cross-thread window barriers.
  b->topo().set_threads(1);
  d.advance(kQuiet);
  const auto t2 = Clock::now();
  b->check(ep.out);
  ep.check_s = seconds_since(t2);
  b->collect(ep.out);
  ep.cal_s = (ep.cal_s + calibrate_on(cal_threads)) / 2;
  if (traced != nullptr) {
    traced->check_s = ep.check_s;
    traced->taps = std::move(taps);
    traced->bench = std::move(b);
  }
  return ep;
}

// --- output -------------------------------------------------------------------------

class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    std::ostringstream o;
    o << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return raw(k, o.str());
  }
  JsonObj& u64(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + json_escape(v) + "\"");
  }
  JsonObj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The run's simulated-time result over its distinct seeded episodes:
/// latency percentiles over every sample of every episode, the mean stall,
/// goodput over the summed spans, counts summed, digests folded.
std::string outcome_json(const std::vector<Outcome>& subs) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  double ops = 0, stall = 0, payload = 0, sim_s = 0;
  std::uint64_t attempted = 0, failed = 0, events = 0;
  obs::Histogram lat;
  std::vector<std::string> violations;
  for (const Outcome& o : subs) {
    digest = fnv(digest, o.digest);
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    lat.merge(o.lat_us);
    stall += o.stall_ms / static_cast<double>(subs.size());
    payload += o.payload_bytes;
    sim_s += o.sim_s;
    events += o.events;
    violations.insert(violations.end(), o.violations.begin(), o.violations.end());
  }
  if (lat.count() < kMinTailSamples) {
    violations.push_back("fewer than 10 latency samples beyond p99");
  }
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << digest;
  std::string viol = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    viol += (i ? ",\"" : "\"") + json_escape(violations[i]) + "\"";
  }
  viol += "]";
  return JsonObj()
      .str("digest", hex.str())
      .num("ops", ops)
      .u64("attempted", attempted)
      .u64("failed", failed)
      .num("lat_p50_ms", hist_percentile(lat, 0.50) / 1000.0)
      .num("lat_p99_ms", hist_percentile(lat, 0.99) / 1000.0)
      .u64("lat_samples", lat.count())
      .num("stall_ms", stall)
      .num("goodput_mbps", payload * 8 / sim_s / 1e6)
      .num("sim_s", sim_s)
      .u64("events", events)
      .raw("violations", viol)
      .str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string episode_json(const Episode& e) {
  return JsonObj()
      .num("setup_s", e.setup_s)
      .num("run_s", e.run_s)
      .num("check_s", e.check_s)
      .num("cal_s", e.cal_s)
      .num("ops", e.out.ops)
      .u64("attempted", e.out.attempted)
      .u64("failed", e.out.failed)
      .u64("events", e.out.events)
      .str();
}

/// Seed of a run's i-th distinct episode.
std::uint64_t sub_seed(const Spec& spec, int i) {
  return spec.seed * static_cast<std::uint64_t>(episodes_per_run(spec.workload)) +
         static_cast<std::uint64_t>(i);
}

/// --trace 0: cycle through the run's distinct seeded episodes until every
/// one has run and `seconds` of run time are measured. A repeated episode
/// must reproduce its first outcome exactly.
int run_timed(const Spec& spec, double seconds) {
  const int distinct = episodes_per_run(spec.workload);
  std::vector<Episode> eps;
  std::vector<Outcome> subs;
  bool same = true;
  double measured = 0;
  calibrate();  // warm the allocator
  for (int i = 0; i < distinct || measured < seconds; ++i) {
    Spec sub = spec;
    sub.seed = sub_seed(spec, i % distinct);
    eps.push_back(run_episode(sub, nullptr));
    measured += eps.back().run_s;
    const Outcome& o = eps.back().out;
    if (i < distinct) {
      subs.push_back(o);
    } else {
      same = same && outcome_json({o}) ==
                         outcome_json({subs[static_cast<std::size_t>(i % distinct)]});
    }
  }
  std::string list = "[";
  for (std::size_t i = 0; i < eps.size(); ++i) {
    list += (i ? "," : "") + episode_json(eps[i]);
  }
  list += "]";
  std::cout << JsonObj()
                   .str("workload", spec.workload)
                   .u64("seed", spec.seed)
                   .raw("deterministic", same ? "true" : "false")
                   .num("peak_rss_mb", peak_rss_mb())
                   .raw("outcome", outcome_json(subs))
                   .raw("episodes", list)
                   .str()
            << std::endl;
  return 0;
}

/// Per-layer metrics of one traced world (single- or multi-shard).
JsonObj layer_metrics(TracedWorld& tw, const Episode& traced, const Episode& plain) {
  Bench& b = *tw.bench;
  Topology& topo = b.topo();
  const double ops = std::max(traced.out.ops, 1.0);
  const StepTrace& st = tw.trace;
  const bool stepped = topo.shard_count() == 1;
  JsonObj m;

  // sim
  std::uint64_t trace_entries = 0;
  for (std::size_t i = 0; i < topo.shard_count(); ++i) {
    trace_entries += topo.world(i).trace().entries().size();
  }
  const double plain_ns = plain.run_s * 1e9 / static_cast<double>(plain.out.events);
  const double traced_ns = traced.run_s * 1e9 / static_cast<double>(traced.out.events);
  m.num("sim.events_per_op", static_cast<double>(traced.out.events) / ops)
      .num("sim.ns_per_event", stepped ? st.all.ns_per_step() : traced_ns)
      .u64("sim.pending_peak", st.pending_peak)
      .num("sim.trace_entries_per_op", static_cast<double>(trace_entries) / ops)
      .num("sim.windows", stepped ? 0.0
                                  : traced.out.sim_s * 1e9 /
                                        static_cast<double>(topo.lookahead().ns()));

  // net
  std::uint64_t frames = 0, wire = 0, hb_bytes = 0;
  for (const SwitchTap& t : tw.taps) {
    frames += t.frames;
    wire += t.bytes;
    hb_bytes += t.hb_bytes;
  }
  std::uint64_t mcast = 0, sw_total = 0;
  for (std::size_t i = 0; i < topo.switch_count(); ++i) {
    const net::EthernetSwitch::Stats& s = topo.ethernet_switch(i).stats();
    mcast += s.multicast;
    sw_total += s.forwarded + s.flooded + s.multicast;
  }
  std::uint64_t routed = 0;
  for (std::size_t i = 0; i < topo.router_count(); ++i) {
    routed += topo.router(i).stats().forwarded;
  }
  std::uint64_t trunk_frames = 0, dropped = 0;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const net::Link::Stats& s = topo.link(i).stats();
    dropped += s.frames_dropped;
    const std::string& name = topo.link_name(i);
    if (name.find(".t") != std::string::npos && name[0] == 'r') {
      trunk_frames += s.frames_delivered;
    }
  }
  obs::Histogram qdelay;
  std::uint64_t retrans = 0;
  if (obs::MetricsRegistry* reg = topo.metrics()) {
    for (const auto& [name, h] : reg->histograms()) {
      if (name.ends_with(".queue_delay_us")) qdelay.merge(h);
    }
    for (const auto& [name, c] : reg->counters()) {
      if (name.starts_with("tcp.") && name.ends_with(".retransmissions")) retrans += c.value();
    }
  }
  m.num("net.frames_per_op", static_cast<double>(frames) / ops)
      .num("net.wire_bytes_per_op", static_cast<double>(wire) / ops)
      .num("net.multicast_share",
           sw_total ? static_cast<double>(mcast) / static_cast<double>(sw_total) : 0.0)
      .num("net.queue_delay_p50_us", hist_percentile(qdelay, 0.50))
      .num("net.queue_delay_p99_us", hist_percentile(qdelay, 0.99))
      .num("net.ns_per_switch_event", st.switch_fwd.ns_per_step())
      .num("net.router_frames_per_op", static_cast<double>(routed) / ops)
      .num("net.trunk_frames_per_op", static_cast<double>(trunk_frames) / ops)
      .u64("net.frames_dropped", dropped);

  // tcp
  const Stacks stacks = stacks_of(topo);
  std::uint64_t segs = 0, demuxed = 0, hits = 0;
  for (const tcp::TcpStack* s : stacks.all()) {
    segs += s->stats().segments_in;
    demuxed += s->stats().segments_demuxed;
    hits += s->stats().demux_cache_hits;
  }
  m.num("tcp.segments_per_op", static_cast<double>(segs) / ops)
      .num("tcp.demux_hit_ratio",
           demuxed ? static_cast<double>(hits) / static_cast<double>(demuxed) : 0.0)
      .num("tcp.retransmissions_per_op", static_cast<double>(retrans) / ops)
      .u64("tcp.conns_peak", st.conns_peak)
      .num("tcp.ns_per_server_rx_event", st.server_rx.ns_per_step())
      .num("tcp.ns_per_client_rx_event", st.client_rx.ns_per_step());

  // sttcp
  double failover_ms = 0;
  if (!b.crash_at().is_zero()) {
    if (auto t = topo.world().trace().first_time("takeover")) {
      failover_ms = (*t - (sim::SimTime::zero() + b.crash_at())).to_millis();
    }
  }
  std::uint64_t beats = 0;
  std::size_t hold_peak = 0;
  for (const sttcp::StTcpEndpoint* ep : endpoints_of(topo)) {
    beats += ep->stats().hb_sent + ep->stats().decision_hb_sent;
    hold_peak = std::max(hold_peak, ep->hold_peak_bytes());
  }
  double decisions = 0, cache_ratio = 0;
  if (auto* bb = dynamic_cast<BlockBench*>(&b)) {
    app::BlockStoreServer& p = bb->primary_app();
    decisions = static_cast<double>(p.decisions().stats().appended) /
                static_cast<double>(std::max<std::uint64_t>(bb->workload().stats().requests, 1));
    const auto& ss = p.store_stats();
    cache_ratio = static_cast<double>(ss.cache_hits) /
                  static_cast<double>(std::max<std::uint64_t>(ss.cache_hits + ss.cache_misses, 1));
  }
  m.num("sttcp.failover_ms", failover_ms)
      .num("sttcp.hb_per_sim_s", static_cast<double>(beats) / traced.out.sim_s)
      .num("sttcp.hb_bytes_per_op", static_cast<double>(hb_bytes) / ops)
      .num("sttcp.ns_per_hb_event", st.hb.ns_per_step())
      .num("sttcp.decisions_per_request", decisions)
      .u64("sttcp.hold_peak_bytes", hold_peak);

  // app, harness
  m.num("app.cache_hit_ratio", cache_ratio)
      .num("harness.check_s", tw.check_s)
      .num("harness.cal_ms", traced.cal_s * 1000.0)
      .num("harness.trace_overhead_ns_per_event", traced_ns - plain_ns);
  return m;
}

/// --trace 1: one untraced and one traced episode of the run's first seeded
/// episode (plus the workload-specific comparison runs), then the per-layer
/// metrics.
int run_traced(Spec spec) {
  spec.seed = sub_seed(spec, 0);
  calibrate();  // warm the allocator
  const Episode plain = run_episode(spec, nullptr);
  spec.metrics = true;
  TracedWorld tw;
  const Episode traced = run_episode(spec, &tw);
  std::vector<std::string> problems = traced.out.violations;
  if (outcome_json({plain.out}) != outcome_json({traced.out})) {
    problems.push_back("traced run diverged from the untraced run");
  }
  JsonObj m = layer_metrics(tw, traced, plain);

  double speedup = 0, replication_us = 0;
  if (spec.workload == "ring") {
    // The same seed at 1 thread: identical outcome, slower wall clock.
    Spec one = spec;
    one.threads = 1;
    TracedWorld tw1;
    const Episode serial = run_episode(one, &tw1);
    if (outcome_json({serial.out}) != outcome_json({traced.out})) {
      problems.push_back("ring digests differ between 1 and 2 threads");
    }
    speedup = serial.run_s / traced.run_s;
  }
  if (spec.workload == "blockstore") {
    // The same seed with ST-TCP off: the log commits at once.
    Spec solo = spec;
    solo.sttcp = false;
    solo.metrics = false;
    const Episode alone = run_episode(solo, nullptr);
    for (const std::string& v : alone.out.violations) problems.push_back("solo: " + v);
    replication_us =
        hist_percentile(traced.out.lat_us, 0.5) - hist_percentile(alone.out.lat_us, 0.5);
  }
  m.num("sim.parallel_speedup", speedup).num("sttcp.replication_delay_us", replication_us);

  Outcome result = traced.out;
  result.violations = problems;
  std::cout << JsonObj()
                   .str("workload", spec.workload)
                   .u64("seed", spec.seed)
                   .raw("deterministic", "true")
                   .num("peak_rss_mb", peak_rss_mb())
                   .raw("outcome", outcome_json({result}))
                   .raw("layers", m.str())
                   .str()
            << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: stbench --workload {bulk,churn,blockstore,ring} --seed N "
               "--seconds S --trace {0,1}\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  Spec spec;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      spec.workload = v;
    } else if (k == "--seed") {
      spec.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = v == "1";
    } else {
      return usage();
    }
  }
  if (spec.workload.empty() || argc % 2 == 0) return usage();
  return trace ? run_traced(spec) : run_timed(spec, seconds);
}

}  // namespace
}  // namespace sttcp::stbench

int main(int argc, char** argv) {
  try {
    return sttcp::stbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "stbench: " << e.what() << "\n";
    return 2;
  }
}
