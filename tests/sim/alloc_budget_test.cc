// Allocation budgets for the engine's hot path.
//
// This binary replaces the global operator new with a counting one, so a
// test can assert how many heap allocations a block of code makes. The
// steady-state event path — scheduling and firing events, re-arming and
// cancelling timers, cascading through the timing wheel — must make none,
// and so must the warm receive path (parsing a data segment out of its frame,
// consuming the receive ring in place). A heartbeat costs exactly its
// frame's block to send and nothing to receive and ingest, and a whole
// replicated download is pinned to a per-MiB budget, a replicated
// block-store request to a per-response one.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "app/block_server.h"
#include "app/client.h"
#include "app/server.h"
#include "harness/block_workload.h"
#include "harness/topology.h"
#include "net/frame.h"
#include "net/headers.h"
#include "net/nic.h"
#include "net/switch.h"
#include "sim/clock_domain.h"
#include "sim/event_loop.h"
#include "sttcp/decision.h"
#include "sttcp/endpoint.h"
#include "tcp/segment.h"
#include "tcp/stack.h"
#include "tests/net/testnet.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the inlined builtin operator new of gtest's test factory with
// the free() below; both sides are this file's malloc/free, so the
// mismatch it reports cannot happen.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sttcp::sim {
namespace {

/// Counts global operator new calls made while it is alive.
class AllocationWindow {
 public:
  AllocationWindow() : start_(g_allocations.load()) {}
  std::uint64_t count() const { return g_allocations.load() - start_; }

 private:
  std::uint64_t start_;
};

// Sanitizer runtimes may allocate behind the program's back; the budgets
// are asserted on uninstrumented builds, the code paths still run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCountsExact = false;
#else
constexpr bool kCountsExact = true;
#endif

#define EXPECT_ALLOCATIONS(window, n)    \
  do {                                   \
    if (kCountsExact) {                  \
      EXPECT_EQ((window).count(), (n));  \
    }                                    \
  } while (0)

#define EXPECT_ALLOCATIONS_EQ(count, n) \
  do {                                  \
    if (kCountsExact) {                 \
      EXPECT_EQ((count), (n));          \
    }                                   \
  } while (0)

constexpr int kCycles = 100'000;

/// A 48-byte capture: the size of a link's (this, port, Frame) arrival.
struct Capture48 {
  std::uint64_t* sink;
  std::array<std::uint64_t, 5> pad{};
};

TEST(AllocBudget, WarmEventLoopScheduleStepAllocatesNothing) {
  EventLoop loop;
  std::uint64_t sink = 0;
  const auto cycle = [&] {
    const Capture48 c{&sink};
    auto cb = [c] { *c.sink += c.pad[0] + 1; };
    static_assert(sizeof(cb) == 48);
    static_assert(EventLoop::Callback::fits_inline<decltype(cb)>());
    loop.schedule_after(Duration::micros(1), cb);
    loop.step();
  };
  cycle();  // warm: the slot table and the wheel's node table grow once
  AllocationWindow w;
  for (int i = 0; i < kCycles; ++i) cycle();
  EXPECT_ALLOCATIONS(w, 0u);
  EXPECT_EQ(sink, static_cast<std::uint64_t>(kCycles) + 1);
}

TEST(AllocBudget, OneShotTimerRearmCancelAllocatesNothing) {
  EventLoop loop;
  ClockDomain domain(loop);  // healthy: a pure passthrough
  OneShotTimer direct(loop);
  OneShotTimer via_domain(domain);
  int fired = 0;
  const auto cycle = [&](OneShotTimer& t) {
    t.arm(Duration::millis(200), [&fired] { ++fired; });  // RTO-style re-arm
    t.arm(Duration::millis(1), [&fired] { ++fired; });
    t.cancel();
    t.arm(Duration::micros(1), [&fired] { ++fired; });
    loop.step();  // fires, clearing the timer's handle
  };
  cycle(direct);
  cycle(via_domain);
  AllocationWindow w;
  for (int i = 0; i < kCycles; ++i) {
    cycle(direct);
    cycle(via_domain);
  }
  EXPECT_ALLOCATIONS(w, 0u);
  EXPECT_EQ(fired, 2 * (kCycles + 1));
  EXPECT_FALSE(direct.armed());
  EXPECT_FALSE(via_domain.armed());
}

TEST(AllocBudget, WheelCascadesThroughEveryLevelWithoutAllocating) {
  EventLoop loop;
  std::uint64_t fired = 0;
  // One event per wheel level (granule 2^10 ns, 6 bits per level), each
  // cascading down through every level below it before it fires.
  const auto round = [&] {
    for (int level = 0; level < 9; ++level) {
      const std::int64_t delta = std::int64_t{1} << (10 + 6 * level);
      loop.schedule_after(Duration::nanos(delta + level), [&fired] { ++fired; });
    }
    loop.run();
  };
  round();
  AllocationWindow w;
  for (int i = 0; i < 10; ++i) round();  // the top level spans ~9 years
  EXPECT_ALLOCATIONS(w, 0u);
  EXPECT_EQ(fired, 9u * 11u);
}

TEST(AllocBudget, ParseDataSegmentFromItsFrameAllocatesNothing) {
  // A full-MSS data segment as it arrives: the payload is a view into the
  // frame, not a copy.
  const net::Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const net::Bytes payload(1460, 0x5a);
  tcp::TcpSegment seg;
  seg.flags.ack = true;
  net::Frame frame =
      net::Frame::allocate(net::kIpFrameHeaderSize + tcp::TcpSegment::kHeaderSize + 1460);
  seg.write(frame.writable().subspan(net::kIpFrameHeaderSize), src, dst, {payload, {}});
  net::write_ip_headers(frame.writable(), net::MacAddr::from_u64(2),
                        net::MacAddr::from_u64(1), src, dst, net::kIpProtoTcp);
  std::size_t bytes = 0;
  AllocationWindow w;
  for (int i = 0; i < kCycles; ++i) {
    const net::ParsedFrame p = net::parse_frame(frame.view());
    const auto parsed = tcp::TcpSegment::parse(p.ip->src, p.ip->dst, p.l4, true);
    bytes += parsed->payload.size();
  }
  EXPECT_ALLOCATIONS(w, 0u);
  EXPECT_EQ(bytes, std::size_t{1460} * kCycles);
}

TEST(AllocBudget, ConsumeOnEstablishedConnectionAllocatesNothing) {
  // The application reads the receive ring in place. Refilling the ring
  // after it drained (it frees its storage when empty) is the one
  // allocation left on this path and is not part of this window.
  testing::TestNet net;
  net.add_host("client", 1);
  net.add_host("server", 2);
  tcp::TcpStack client(net.host(0), tcp::TcpConfig{});
  tcp::TcpStack server(net.host(1), tcp::TcpConfig{});
  tcp::TcpConnection* accepted = nullptr;
  server.listen(80, [&accepted](tcp::TcpConnection& c) { accepted = &c; });
  tcp::TcpConnection& conn =
      client.connect(net.ip(0), net::SocketAddr{net.ip(1), 80}, {});
  net.run_for(Duration::millis(5));
  ASSERT_NE(accepted, nullptr);
  const net::Bytes data(30'000, 0x33);  // under the window: no update ACK due
  ASSERT_EQ(accepted->send(data), data.size());
  net.run_for(Duration::millis(50));
  ASSERT_EQ(conn.readable(), data.size());
  std::uint64_t sum = 0;
  std::size_t consumed = 0;
  AllocationWindow w;
  while (conn.readable() > 0) {
    consumed += conn.consume(7, [&sum](net::BytesView v) {
      for (const std::uint8_t b : v) sum += b;
    });
  }
  EXPECT_ALLOCATIONS(w, 0u);
  EXPECT_EQ(consumed, data.size());
  EXPECT_EQ(sum, std::uint64_t{0x33} * data.size());
}

// --- heartbeats --------------------------------------------------------------
// A beat is written straight into its frame and read in place, so the frame
// block is the one allocation a beat costs, on either side.

/// A pair whose primary holds `decisions` unacked logged decisions. The
/// backup attaches `replay` (when given) and acks what it ingests.
struct DecisionPair {
  DecisionPair(std::size_t decisions, sttcp::DecisionLog* replay)
      : topo(harness::make_figure2(harness::TopologyConfig{})), cell(topo->cell()) {
    cell.primary_endpoint()->set_decision_log(&log);
    if (replay != nullptr) cell.backup_endpoint()->set_decision_log(replay);
    for (std::size_t i = 0; i < decisions; ++i) {
      log.choose(sttcp::DecisionKind::kOrder, [i] { return i * 7919; });
    }
    topo->run_for(Duration::millis(10));
  }
  sttcp::DecisionLog log{sttcp::DecisionLog::Mode::kRecord};
  std::unique_ptr<harness::Topology> topo;
  harness::Cell& cell;
};

TEST(AllocBudget, WarmDecisionBeatThroughHostAllocatesOneFrame) {
  // The backup keeps no log and never acks, so every beat carries the same
  // 24-record unacked window (blockstore's average).
  DecisionPair pair(24, nullptr);
  sttcp::StTcpEndpoint& primary = *pair.cell.primary_endpoint();
  const std::uint64_t sent = primary.stats().decision_hb_sent;
  primary.send_decision_heartbeat();  // warm
  pair.topo->run_for(Duration::millis(1));
  std::uint64_t allocations = 0;
  for (int i = 0; i < 100; ++i) {
    AllocationWindow w;
    primary.send_decision_heartbeat();
    allocations += w.count();
    pair.topo->run_for(Duration::millis(1));  // deliver it, outside the window
  }
  EXPECT_ALLOCATIONS_EQ(allocations, 100u);
  EXPECT_EQ(primary.stats().decision_hb_sent, sent + 101);
}

TEST(AllocBudget, ReceivingAndIngestingAWarmDecisionBeatAllocatesNothing) {
  // Capture one decision beat on the wire (25 unacked records), let the
  // backup ingest it once, then hand the same frame to the backup's NIC
  // again and again: each time the beat is parsed in place and its records
  // meet the replay log as the retransmitted duplicates every flush
  // re-sends.
  sttcp::DecisionLog replay(sttcp::DecisionLog::Mode::kReplay);
  DecisionPair pair(24, &replay);
  const net::Ipv4Addr backup_ip = pair.cell.backup_ip(0);
  net::Frame beat;
  pair.topo->ethernet_switch().set_frame_tap([&beat, backup_ip](sim::SimTime,
                                                                const net::Frame& f) {
    const net::ParsedFrame p = net::parse_frame(f.view());
    if (p.ip && p.ip->protocol == net::kIpProtoUdp && p.ip->dst == backup_ip &&
        beat.empty()) {
      beat = f;
    }
  });
  pair.log.choose(sttcp::DecisionKind::kOrder, [] { return 1; });
  pair.cell.primary_endpoint()->send_decision_heartbeat();
  pair.topo->run_for(Duration::millis(1));
  pair.topo->ethernet_switch().set_frame_tap(nullptr);
  ASSERT_FALSE(beat.empty());
  ASSERT_EQ(replay.rx_cursor(), 25u);
  const std::uint64_t duplicates = replay.stats().duplicates;
  net::Nic& nic = pair.cell.backup().nic(0);
  AllocationWindow w;
  for (int i = 0; i < 1000; ++i) nic.deliver_frame(beat);
  EXPECT_ALLOCATIONS(w, 0u);
  EXPECT_EQ(replay.stats().duplicates, duplicates + 25u * 1000);
}

TEST(AllocBudget, PeriodicBeatOfTwoThousandRecordsAllocatesOneBlockPerCopy) {
  // 2,000 idle replicated connections: over a second of heartbeating, the
  // pair's only allocations are one block per copy of a beat -- the UDP
  // copy's frame and the serial copy's buffer. The UDP copy carries every
  // record: 2,000 x 19 B is under the datagram's record budget.
  constexpr std::size_t kConns = 2000;
  harness::TopologyConfig cfg;
  cfg.sttcp.serial_max_records = 50;
  const auto topo = harness::make_figure2(cfg);
  harness::Cell& cell = topo->cell();
  harness::Topology::HostEntry& client = *topo->host_by_name("client");
  cell.primary_stack().listen(cell.service_port(), [](tcp::TcpConnection&) {});
  cell.backup_stack().listen(cell.service_port(), [](tcp::TcpConnection&) {});
  for (std::size_t i = 0; i < kConns; ++i) {
    client.stack->connect(client.ip, cell.connect_addr(), {});
  }
  topo->run_for(Duration::seconds(2));
  ASSERT_EQ(cell.primary_endpoint()->replicated_connections(), kConns);
  const auto beats = [&cell] {
    return cell.primary_endpoint()->stats().hb_sent + cell.backup_endpoint()->stats().hb_sent;
  };
  const std::uint64_t before = beats();
  AllocationWindow w;
  topo->run_for(Duration::seconds(1));
  const std::uint64_t sent = beats() - before;
  EXPECT_GE(sent, 8u);
  EXPECT_ALLOCATIONS(w, 2 * sent);
}

// A fixed-seed ST-TCP pair download: the whole replicated data path (links,
// switch tap, TCP send/receive, heartbeats) pinned to an allocation budget
// per delivered MiB. The budget is the measured count plus 10%. What is
// left is about 3 per data segment: the data segment's frame block, the
// frame block of the ACK that answers it, and the client's receive ring
// refilling after each read drained it. Taps, fan-out, parsing and reads
// share or view those blocks; heartbeats add a few per second.
TEST(AllocBudget, PairDownloadAllocationsPerMiB) {
  constexpr std::uint64_t kBytes = 4 << 20;
  harness::TopologyConfig cfg;
  cfg.seed = 1;
  const auto topo = harness::make_figure2(cfg);
  harness::Cell& cell = topo->cell();
  harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer primary(cell.primary_stack(), cell.service_port(), kBytes);
  app::FileServer backup(cell.backup_stack(), cell.service_port(), kBytes);
  app::DownloadClient::Options opt;
  opt.expected_bytes = kBytes;
  app::DownloadClient client(*client_host.stack, client_host.ip, {cell.connect_addr()},
                             opt);
  client.start();
  topo->run_for(Duration::millis(50));  // handshake, replica setup, first window
  const std::uint64_t before = client.received();
  AllocationWindow w;
  for (int ms = 0; ms < 10'000 && !client.complete(); ++ms) {
    topo->run_for(Duration::millis(1));
  }
  const std::uint64_t allocations = w.count();
  ASSERT_TRUE(client.complete());
  const double mib = static_cast<double>(client.received() - before) / (1 << 20);
  const double per_mib = static_cast<double>(allocations) / mib;
  RecordProperty("allocations_per_mib", static_cast<int>(per_mib));
  std::printf("pair download: %.0f allocations per delivered MiB\n", per_mib);
  constexpr double kMeasuredPerMiB = 2155;
  if (kCountsExact) {
    EXPECT_LE(per_mib, kMeasuredPerMiB * 1.10);
  }
}

// A warm replicated block store serving the end-to-end benchmark's mix
// (16 clients, 1,000-op sessions, 35% PUT, 5% DELETE, the rest GET) over a
// fixed-seed pair: primary recording, backup replaying, output commit on.
// The budget is the measured count per response plus 10%. What is left is
// the TCP layer's: one block per frame (the request, its response, their
// ACKs and two decision beats, the request's tap copy shared), plus the
// send and receive rings, which free their storage whenever they drain and
// so refill about once per request or response on every host.
TEST(AllocBudget, WarmBlockStoreRequestsAllocationsPerResponse) {
  harness::TopologyConfig cfg;
  cfg.seed = 1;
  const auto topo = harness::make_figure2(cfg);
  harness::Cell& cell = topo->cell();
  harness::Topology::HostEntry& client = *topo->host_by_name("client");
  using Mode = sttcp::DecisionLog::Mode;
  app::BlockStoreServer primary(cell.primary_stack(), cell.service_port(), {},
                                Mode::kRecord);
  app::BlockStoreServer backup(cell.backup_stack(), cell.service_port(), {},
                               Mode::kReplay);
  cell.primary_endpoint()->set_decision_log(&primary.decisions());
  cell.backup_endpoint()->set_decision_log(&backup.decisions());
  harness::BlockWorkloadConfig wc;
  wc.clients = 16;
  wc.ops_per_session = 1000;
  wc.duration = Duration::seconds(3);
  harness::BlockWorkload workload(topo->world(), *client.stack, client.ip,
                                  cell.connect_addr(), wc);
  workload.start();
  topo->run_for(Duration::millis(500));  // sessions open, caches and buffers warm
  const std::uint64_t before = workload.stats().responses;
  AllocationWindow w;
  topo->run_for(Duration::seconds(1));
  const std::uint64_t allocations = w.count();
  const std::uint64_t responses = workload.stats().responses - before;
  ASSERT_GT(responses, 5'000u);
  EXPECT_EQ(workload.stats().mismatches, 0u);
  EXPECT_EQ(backup.store_stats().replay_mismatch, 0u);
  const double per_response =
      static_cast<double>(allocations) / static_cast<double>(responses);
  RecordProperty("allocations_per_response", std::to_string(per_response));
  std::printf("block store: %.2f allocations per response\n", per_response);
  constexpr double kMeasuredPerResponse = 12.74;
  if (kCountsExact) {
    EXPECT_LE(per_response, kMeasuredPerResponse * 1.10);
  }
}

}  // namespace
}  // namespace sttcp::sim
