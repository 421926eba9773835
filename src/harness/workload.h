// Churn workload generator: thousands of concurrent client connections
// through the tapped pair.
//
// Each flow runs the full lifecycle connect -> request -> transfer -> close,
// then (closed-loop) is replaced after a think time. Arrival processes:
//  * kPoisson     — open loop, exponential inter-arrival gaps;
//  * kOnOff       — Poisson arrivals gated by an exponential on/off phase
//                   process (bursty load, the classic interrupted-Poisson
//                   model);
//  * kClosedLoop  — a fixed client population, each looping
//                   connect -> transfer -> close -> think -> repeat, so the
//                   concurrency level is pinned instead of the arrival rate.
// Flow sizes are bounded-Pareto (heavy-tailed, like real file/object sizes)
// via inverse-CDF sampling; min == max gives fixed-size flows.
//
// The generator pairs with app::SizedServer: each flow opens a connection to
// the service address, sends an 8-byte big-endian size request, verifies the
// returned pattern bytes, and records flow-completion time (first byte to
// last byte of payload plus connection setup) into log-linear histograms.
//
// Everything draws from a single forked Rng and runs on the simulation
// clock, so a fixed (seed, config) pair produces a bit-identical run —
// digest() folds every flow outcome (id, size, bytes, close reason, finish
// time) into one value the determinism tests compare across runs and
// SweepRunner thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "tcp/stack.h"

namespace sttcp::harness {

struct WorkloadConfig {
  enum class Arrivals { kPoisson, kOnOff, kClosedLoop };
  Arrivals arrivals = Arrivals::kPoisson;

  /// Open-loop (kPoisson, kOnOff): mean new connections per second. For
  /// kOnOff this is the rate DURING an on phase.
  double arrival_rate_cps = 100.0;
  /// kOnOff: exponential mean duration of the on / off phases.
  sim::Duration on_mean = sim::Duration::millis(500);
  sim::Duration off_mean = sim::Duration::millis(500);

  /// kClosedLoop: population size and exponential mean think time between a
  /// flow finishing and its replacement connecting.
  std::size_t closed_clients = 100;
  sim::Duration think_mean = sim::Duration::millis(50);

  /// Bounded-Pareto flow sizes on [flow_min_bytes, flow_max_bytes] with
  /// shape alpha (smaller alpha = heavier tail). min == max is fixed-size.
  double pareto_alpha = 1.3;
  std::uint64_t flow_min_bytes = 4 * 1024;
  std::uint64_t flow_max_bytes = 1024 * 1024;

  /// Arrivals beyond this many concurrent flows are shed (counted, not
  /// started) — an open-loop overload guard, not a rate limiter.
  std::size_t max_concurrent = 4096;
  /// Stop generating after this many offered flows (0 = duration-limited).
  std::uint64_t max_flows = 0;
  /// Generation window: no new flows start after start() + duration.
  /// In-flight flows run to completion (see drained()).
  sim::Duration duration = sim::Duration::seconds(10);

  /// Per-flow connect target (a sharded fabric's front end — typically
  /// ShardDirector::target_for). Null connects every flow to the
  /// constructor's default address. The resolver must be deterministic in
  /// its arguments: it is part of the reproducible run.
  std::function<net::SocketAddr(std::uint64_t flow_id, std::size_t slot)> target_for;
};

class Workload {
 public:
  struct Stats {
    std::uint64_t offered = 0;    // arrivals generated (started + shed)
    std::uint64_t started = 0;    // connections actually opened
    std::uint64_t shed = 0;       // refused by the max_concurrent guard
    std::uint64_t completed = 0;  // graceful close, byte-exact, full size
    std::uint64_t failed = 0;     // anything else
    std::uint64_t corrupt = 0;    // flows with a pattern mismatch
    std::uint64_t resets = 0;     // flows closed by RST (client-visible!)
    std::uint64_t bytes_received = 0;
    std::size_t peak_concurrent = 0;
  };

  /// Flows for one target-per-flow, distinguishable per shard.
  struct TargetStats {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t resets = 0;
    std::uint64_t bytes_received = 0;
    obs::Histogram fct_us;
  };

  /// Drive `stack` from `client_ip`, defaulting every flow to `server`
  /// unless cfg.target_for redirects it.
  Workload(sim::World& world, tcp::TcpStack& stack, net::Ipv4Addr client_ip,
           net::SocketAddr server, WorkloadConfig cfg);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Begin generating arrivals. Call once; then Topology::run_for() long
  /// enough to cover duration plus a drain margin.
  void start();

  /// No further flows will be generated.
  bool generation_done() const;
  /// Generation finished AND every started flow has closed.
  bool drained() const { return generation_done() && active_.empty(); }

  const Stats& stats() const { return stats_; }
  const WorkloadConfig& config() const { return cfg_; }
  std::size_t active_flows() const { return active_.size(); }

  /// Flow-completion time (connect() to last payload byte), microseconds.
  const obs::Histogram& fct_us() const { return fct_us_; }
  /// Connection setup time (connect() to ESTABLISHED), microseconds.
  const obs::Histogram& connect_us() const { return connect_us_; }
  /// Per-connect-target breakdown (one entry per shard in a fabric run;
  /// a single entry when no resolver is set). Ordered by address.
  const std::map<net::SocketAddr, TargetStats>& per_target() const {
    return per_target_;
  }

  /// Order-sensitive fold of every finished flow's (id, size, bytes
  /// received, close reason, corrupt flag, finish time) plus the final
  /// counters: two runs are behaviourally identical iff digests match.
  std::uint64_t digest() const;

 private:
  struct Flow {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    std::size_t slot = 0;  // closed-loop population slot
    net::SocketAddr target;
    tcp::TcpConnection* conn = nullptr;
    std::uint64_t received = 0;
    sim::SimTime started;
    bool corrupt = false;
    bool fct_recorded = false;
  };
  /// Closed-loop client: its think timer survives across its flows.
  struct Slot {
    explicit Slot(sim::EventLoop& loop) : timer(loop) {}
    sim::OneShotTimer timer;
  };

  sim::SimTime now() const { return loop_.now(); }
  std::uint64_t draw_size();
  sim::Duration draw_exp(sim::Duration mean);
  void schedule_next_arrival();
  void enter_phase(bool on);
  void launch_flow(std::size_t slot);
  void arm_respawn(std::size_t slot);
  void on_flow_established(std::uint64_t id);
  void on_flow_readable(std::uint64_t id);
  void on_flow_closed(std::uint64_t id, tcp::CloseReason reason);
  void fold(std::uint64_t v) { digest_ = (digest_ ^ v) * 0x100000001b3ULL; }

  WorkloadConfig cfg_;
  tcp::TcpStack& stack_;
  sim::EventLoop& loop_;
  net::Ipv4Addr client_ip_;
  net::SocketAddr server_;
  sim::Rng rng_;

  sim::SimTime gen_end_;
  bool started_ = false;
  bool on_ = false;  // kOnOff phase
  sim::OneShotTimer arrival_timer_;
  sim::OneShotTimer phase_timer_;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::uint64_t next_flow_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Flow>> active_;
  Stats stats_;
  obs::Histogram fct_us_;
  obs::Histogram connect_us_;
  std::map<net::SocketAddr, TargetStats> per_target_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace sttcp::harness
