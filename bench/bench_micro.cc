// Microbenchmarks (google-benchmark) for the hot paths of the substrate:
// codecs, checksums, reassembly, the event loop, and a full simulated
// transfer (simulated seconds per wall second).
#include <benchmark/benchmark.h>

#include <queue>

#include "app/client.h"
#include "app/pattern.h"
#include "app/server.h"
#include "harness/topology.h"
#include "net/checksum.h"
#include "net/nic.h"
#include "net/switch.h"
#include "sim/random.h"
#include "sim/timer_wheel.h"
#include "sttcp/messages.h"
#include "tcp/reassembly.h"
#include "tcp/segment.h"
#include "tcp/stack.h"

namespace sttcp {
namespace {

// Figure-2-shaped fan-out rig: one sender NIC and `receivers` NICs hang off
// one switch; a static multicast group fans every sender frame out to all
// receivers (the ST-TCP client->serviceIP tap pattern). This is the path the
// zero-copy Frame work targets: per-egress cost must be a refcount, not a
// payload copy.
struct FanoutRig {
  explicit FanoutRig(int receivers) : sw(world, "sw") {
    group = net::MacAddr::multicast_group(0x57);
    std::vector<int> group_ports;
    const auto add = [&](net::MacAddr mac) -> net::Nic& {
      nics.push_back(std::make_unique<net::Nic>(
          world, "nic" + std::to_string(nics.size()), mac));
      links.push_back(std::make_unique<net::Link>(world, sim::Duration::zero(), 0));
      nics.back()->attach(links.back()->port(0));
      ports.push_back(sw.add_port(links.back()->port(1)));
      return *nics.back();
    };
    sender_mac = net::MacAddr::from_u64(0x020000000001ull);
    add(sender_mac);
    for (int i = 0; i < receivers; ++i) {
      net::Nic& n = add(net::MacAddr::from_u64(0x020000000010ull + i));
      n.subscribe_multicast(group);
      n.set_host_sink([this](net::Frame f) { sink_bytes += f.size(); });
      group_ports.push_back(ports.back());
    }
    sw.add_multicast_group(group, group_ports);
  }

  net::Bytes make_frame(std::size_t payload) const {
    net::Bytes out;
    net::ByteWriter w(out);
    net::EthernetHeader{group, sender_mac, 0x1234}.write(w);
    out.resize(net::EthernetHeader::kSize + payload, 0xa5);
    return out;
  }

  sim::World world;
  net::EthernetSwitch sw;
  net::MacAddr group, sender_mac;
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<int> ports;
  std::uint64_t sink_bytes = 0;
};

void BM_SwitchMulticastFanout(benchmark::State& state) {
  // range(0): fan-out width (2 = the paper's primary+backup pair).
  FanoutRig rig(static_cast<int>(state.range(0)));
  const net::Frame frame(rig.make_frame(1460));
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      rig.nics[0]->send(frame);
    }
    rig.world.loop().run();
  }
  benchmark::DoNotOptimize(rig.sink_bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch *
                          static_cast<std::int64_t>(frame.size()) * state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch *
                          state.range(0));
}
BENCHMARK(BM_SwitchMulticastFanout)->Arg(2)->Arg(8)->Arg(32);

void BM_SwitchFloodFanout(benchmark::State& state) {
  // Broadcast flood: unknown destination fans to every port (the worst-case
  // egress amplification); receiver NICs filter by MAC but the copies (pre-
  // refactor) happen per egress port regardless.
  FanoutRig rig(static_cast<int>(state.range(0)));
  net::Bytes raw = rig.make_frame(1460);
  // Rewrite dst to broadcast so it floods instead of using the group.
  const auto bc = net::MacAddr::broadcast().bytes();
  std::copy(bc.begin(), bc.end(), raw.begin());
  const net::Frame frame(std::move(raw));
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      rig.nics[0]->send(frame);
    }
    rig.world.loop().run();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch *
                          static_cast<std::int64_t>(frame.size()) * state.range(0));
}
BENCHMARK(BM_SwitchFloodFanout)->Arg(8);

void BM_InternetChecksum(benchmark::State& state) {
  const net::Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1460)->Arg(65536);

// The payload pattern every server generates and every client verifies
// (app/pattern.h), at one segment, one server chunk and one large read. The
// offset sits just short of the 64 KiB period so every call crosses it.
constexpr std::uint64_t kPatternBenchOffset = 65'536 - 100;

void BM_PatternFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::pattern_bytes(kPatternBenchOffset, n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PatternFill)->Arg(1460)->Arg(16384)->Arg(1 << 20);

void BM_PatternVerify(benchmark::State& state) {
  const net::Bytes data =
      app::pattern_bytes(kPatternBenchOffset, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::pattern_verify(kPatternBenchOffset, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PatternVerify)->Arg(1460)->Arg(16384)->Arg(1 << 20);

void BM_TcpSegmentSerialize(benchmark::State& state) {
  tcp::TcpSegment seg;
  seg.payload = net::Bytes(1460, 0x5a);
  seg.flags.ack = true;
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg.serialize(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1480);
}
BENCHMARK(BM_TcpSegmentSerialize);

void BM_TcpSegmentParse(benchmark::State& state) {
  tcp::TcpSegment seg;
  seg.payload = net::Bytes(1460, 0x5a);
  seg.flags.ack = true;
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  const net::Bytes wire = seg.serialize(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcp::TcpSegment::parse(a, b, wire, true));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1480);
}
BENCHMARK(BM_TcpSegmentParse);

void BM_HeartbeatSerialize(benchmark::State& state) {
  sttcp::HeartbeatMsg msg;
  for (int i = 0; i < state.range(0); ++i) {
    sttcp::HbRecord r;
    r.repl_id = static_cast<std::uint16_t>(i);
    msg.records.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.serialize());
  }
}
BENCHMARK(BM_HeartbeatSerialize)->Arg(1)->Arg(100);

void BM_ReassemblyInOrder(benchmark::State& state) {
  const net::Bytes chunk(1460, 0x11);
  for (auto _ : state) {
    state.PauseTiming();
    tcp::ReassemblyBuffer rb(1 << 20);
    state.ResumeTiming();
    std::uint64_t off = 0;
    for (int i = 0; i < 64; ++i) {
      rb.insert(off, chunk);
      off += chunk.size();
      if (rb.window() < chunk.size()) rb.read(1 << 20);
    }
    benchmark::DoNotOptimize(rb.read(1 << 20));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1460);
}
BENCHMARK(BM_ReassemblyInOrder);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(sim::SimTime::from_ns(i * 100), [&sink] { ++sink; });
    }
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_TcpSegmentSerializeRetransmit(benchmark::State& state) {
  // The RFC 1624 retransmit fast path: same byte range re-serialized with a
  // warm ChecksumMemo — two incremental word updates instead of re-summing
  // 1460 payload bytes. Compare against BM_TcpSegmentSerialize.
  tcp::TcpSegment seg;
  seg.payload = net::Bytes(1460, 0x5a);
  seg.flags.ack = true;
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  tcp::TcpSegment::ChecksumMemo memo;
  benchmark::DoNotOptimize(seg.serialize(a, b, memo));  // warm the memo
  std::uint32_t ack = 0;
  for (auto _ : state) {
    seg.ack = ++ack;  // each retransmission carries a moved ACK field
    benchmark::DoNotOptimize(seg.serialize(a, b, memo));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1480);
}
BENCHMARK(BM_TcpSegmentSerializeRetransmit);

void BM_ChecksumUpdate(benchmark::State& state) {
  // The raw RFC 1624 word update (the unit the fast path is built from).
  std::uint16_t hc = 0xdd2f;
  std::uint16_t w = 0;
  for (auto _ : state) {
    hc = net::checksum_update(hc, w, static_cast<std::uint16_t>(w + 1));
    ++w;
    benchmark::DoNotOptimize(hc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChecksumUpdate);

// Demux rig: a stack with `conns` active connections on a NIC-less host
// (SYNs are dropped at send_ip, which is fine — the connection table is
// what the benchmark needs). Lookups replay the tuples round-robin, the
// pattern a busy receive path sees.
struct DemuxRig {
  DemuxRig(int conns) : host(world, "h") {
    host.add_ip(net::Ipv4Addr(10, 0, 0, 1));
    stack = std::make_unique<tcp::TcpStack>(host, tcp::TcpConfig{});
    for (int i = 0; i < conns; ++i) {
      net::SocketAddr remote{
          net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i)),
          80};
      tcp::TcpConnection& c =
          stack->connect(net::Ipv4Addr(10, 0, 0, 1), remote, {});
      tuples.push_back(c.tuple());
    }
  }
  sim::World world;
  net::Host host;
  std::unique_ptr<tcp::TcpStack> stack;
  std::vector<tcp::FourTuple> tuples;
};

void BM_Demux(benchmark::State& state) {
  // Per-segment connection demux through the flat slot cache (steady state:
  // every lookup after the first per tuple is a cache hit unless two tuples
  // collide on a slot).
  DemuxRig rig(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.stack->find(rig.tuples[i]));
    if (++i == rig.tuples.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Demux)->Arg(1)->Arg(256)->Arg(2048);

void BM_DemuxMapBaseline(benchmark::State& state) {
  // What every lookup cost before the cache: the unordered_map probe
  // (std::hash<FourTuple> + bucket walk + full tuple compare).
  DemuxRig rig(static_cast<int>(state.range(0)));
  std::unordered_map<tcp::FourTuple, tcp::TcpConnection*> map;
  for (const auto& t : rig.tuples) map.emplace(t, rig.stack->find(t));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(rig.tuples[i]));
    if (++i == rig.tuples.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DemuxMapBaseline)->Arg(1)->Arg(256)->Arg(2048);

// ---------------------------------------------------------------------------
// Timer churn: the hierarchical wheel vs the binary heap it replaced.
// Workload: `armed` timers stay armed; each operation pops the earliest and
// re-arms it a pseudo-random RTO-ish interval later — the ACK-clock pattern
// a loaded TCP stack drives (every ACK cancels + re-arms the connection's
// retransmission timer).
// ---------------------------------------------------------------------------

/// The pre-wheel EventLoop queue, preserved as a baseline: a std::push_heap/
/// pop_heap binary heap over (at, seq).
struct BaselineSlotHeap {
  struct Order {
    bool operator()(const sim::WheelEntry& x, const sim::WheelEntry& y) const {
      if (x.at.ns() != y.at.ns()) return x.at.ns() > y.at.ns();
      return x.seq > y.seq;
    }
  };
  void push(sim::WheelEntry e) {
    v.push_back(e);
    std::push_heap(v.begin(), v.end(), Order{});
  }
  sim::WheelEntry pop_min() {
    std::pop_heap(v.begin(), v.end(), Order{});
    sim::WheelEntry e = v.back();
    v.pop_back();
    return e;
  }
  std::vector<sim::WheelEntry> v;
};

template <typename Queue>
void timer_churn(benchmark::State& state, Queue& q) {
  const int armed = static_cast<int>(state.range(0));
  sim::Rng rng(42);
  std::uint64_t seq = 0;
  sim::SimTime now = sim::SimTime::zero();
  const auto next_deadline = [&] {
    // 1 us .. ~64 ms ahead: spans wheel levels 0-5 like real RTO/keepalive
    // timer mixes do.
    return now + sim::Duration::nanos(
                     1024 + static_cast<std::int64_t>(rng.below(1 << 26)));
  };
  for (int i = 0; i < armed; ++i) q.push({next_deadline(), seq++, 0, 0});
  for (auto _ : state) {
    sim::WheelEntry e = q.pop_min();
    now = e.at;
    q.push({next_deadline(), seq++, 0, 0});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TimerWheelChurn(benchmark::State& state) {
  sim::TimerWheel wheel;
  timer_churn(state, wheel);
}
BENCHMARK(BM_TimerWheelChurn)->Arg(100)->Arg(10000);

void BM_TimerHeapChurnBaseline(benchmark::State& state) {
  BaselineSlotHeap heap;
  timer_churn(state, heap);
}
BENCHMARK(BM_TimerHeapChurnBaseline)->Arg(100)->Arg(10000);

void BM_SimulatedTransferThroughput(benchmark::State& state) {
  // How much simulated work one wall-clock second buys: a full 10 MB
  // ST-TCP-replicated download per iteration.
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto topo = harness::make_figure2(harness::TopologyConfig{});
    harness::Cell& cell = topo->cell();
    harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p(cell.primary_stack(), cell.service_port(), 10'000'000);
    app::FileServer b(cell.backup_stack(), cell.service_port(), 10'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 10'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(10));
    bytes += client.received();
    benchmark::DoNotOptimize(client.complete());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SimulatedTransferThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sttcp

BENCHMARK_MAIN();
