// Microbenchmarks (google-benchmark) for the hot paths of the substrate:
// codecs, checksums, reassembly, the event loop, and a full simulated
// transfer (simulated seconds per wall second).
#include <benchmark/benchmark.h>

#include <array>

#include <queue>

#include "app/block_store.h"
#include "app/client.h"
#include "app/digest.h"
#include "app/pattern.h"
#include "app/server.h"
#include "harness/topology.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/nic.h"
#include "net/switch.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "sim/timer_wheel.h"
#include "sttcp/messages.h"
#include "tcp/reassembly.h"
#include "tcp/segment.h"
#include "tcp/send_buffer.h"
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
  const net::Frame frame = net::Frame::copy_of(rig.make_frame(1460));
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
  const net::Frame frame = net::Frame::copy_of(raw);
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

// The block store's GET miss on a full cache (app/block_store.h, the
// benchmark's default geometry): pick a victim among the 4 LRU-tail pages,
// evict it, fault the block in from the device. The blocks cycle through
// all 256, so every one misses.
void BM_BlockCacheMissEvictInsert(benchmark::State& state) {
  constexpr std::uint32_t kBlocks = 256;
  app::BlockDevice dev(kBlocks, 512);
  for (std::uint32_t b = 0; b < kBlocks; ++b) dev.write(b, app::pattern_view(b, 512));
  app::LruBlockCache cache(16, 512);
  std::uint32_t next = 0;
  std::size_t pick = 0;
  for (auto _ : state) {
    const std::uint32_t b = next;
    next = (next + 1) % kBlocks;
    if (cache.contains(b)) continue;
    if (cache.full()) {
      const auto& cand = cache.victim_candidates(4);
      cache.evict(cand[pick++ % cand.size()], dev);
    }
    cache.insert_clean(b, dev.read(b));
  }
  benchmark::DoNotOptimize(cache.size());
}
BENCHMARK(BM_BlockCacheMissEvictInsert);

// The digest fold over one block-size page (app/digest.h): what every
// response costs tx_digest on each replica, and every GET the client.
void BM_BlockDigestFold(benchmark::State& state) {
  const net::BytesView page = app::pattern_view(0, static_cast<std::size_t>(state.range(0)));
  std::uint64_t d = app::kFnvBasis;
  for (auto _ : state) {
    d = app::fold_bytes(d, page);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlockDigestFold)->Arg(512);

// 1460 bytes of segment payload for the codec benchmarks.
const net::Bytes kMssPayload(1460, 0x5a);

void BM_TcpSegmentSerialize(benchmark::State& state) {
  tcp::TcpSegment seg;
  seg.payload = kMssPayload;
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
  seg.payload = kMssPayload;
  seg.flags.ack = true;
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  const net::Bytes wire = seg.serialize(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcp::TcpSegment::parse(a, b, wire, true));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1480);
}
BENCHMARK(BM_TcpSegmentParse);

// Heartbeat shapes measured on stbench: a primary's decision beat on
// `blockstore` carries ~24 unacked decision records and no connection
// records; a periodic beat on `ring` carries ~1,721 connection records.
struct HbShape {
  std::size_t decisions = 0;
  std::size_t records = 0;
};
constexpr HbShape kDecisionBeat{24, 0};
constexpr HbShape kRingPeriodicBeat{0, 1721};

/// The endpoint state a beat is written from: a decision log holding the
/// unacked window, and the connections' records.
struct HbSource {
  explicit HbSource(const HbShape& shape) : log(sttcp::DecisionLog::Mode::kRecord) {
    header.role = sttcp::Role::kPrimary;
    header.hb_seq = 1000;
    header.decisions_valid = shape.decisions > 0;
    header.decision_ack = 17;
    for (std::size_t i = 0; i < shape.decisions; ++i) {
      log.choose(sttcp::DecisionKind::kOrder, [i] { return i * 7919; });
    }
    for (std::size_t i = 0; i < shape.records; ++i) {
      sttcp::HbRecord r;
      r.repl_id = static_cast<std::uint16_t>(i + 1);
      r.bytes_received = i * 1460;
      r.acked_by_peer = i * 977;
      r.app_written = i * 4096;
      r.app_read = i * 1460;
      records.push_back(r);
    }
  }
  sttcp::HbHeader header;
  sttcp::DecisionLog log;
  std::vector<sttcp::HbRecord> records;
};

/// One beat from endpoint state to a frame ready for the NIC: sized once,
/// written in place behind the header room, UDP and IP headers filled in.
net::Frame write_beat_frame(const HbSource& src) {
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  const auto decisions = src.log.unacked(512);
  std::size_t record_bytes = 0;
  for (const sttcp::HbRecord& r : src.records) record_bytes += r.wire_size();
  net::Frame frame = net::Frame::allocate(
      net::kUdpFrameHeaderSize + src.header.wire_size(decisions.size(), record_bytes));
  const std::span<std::uint8_t> bytes = frame.writable();
  sttcp::HbWriter w(bytes.subspan(net::kUdpFrameHeaderSize), src.header, decisions.size());
  for (const sttcp::DecisionRecord& d : decisions) w.decision(d);
  w.records(src.records.size());
  for (const sttcp::HbRecord& r : src.records) w.record(r);
  w.finish();
  net::write_udp_header(bytes.subspan(net::kIpFrameHeaderSize), a, b, 7000, 7000);
  net::write_ip_headers(bytes, net::MacAddr::from_u64(2), net::MacAddr::from_u64(1), a, b,
                        net::kIpProtoUdp);
  return frame;
}

void BM_HeartbeatWrite(benchmark::State& state, HbShape shape) {
  const HbSource src(shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_beat_frame(src));
  }
}
BENCHMARK_CAPTURE(BM_HeartbeatWrite, decision_24, kDecisionBeat);
BENCHMARK_CAPTURE(BM_HeartbeatWrite, periodic_1721, kRingPeriodicBeat);

void BM_HeartbeatRead(benchmark::State& state, HbShape shape) {
  // Validate the received UDP payload once, then walk every decision and
  // record it carries.
  const net::Frame frame = write_beat_frame(HbSource(shape));
  const net::BytesView payload = frame.view().subspan(net::kUdpFrameHeaderSize);
  for (auto _ : state) {
    const auto beat = sttcp::HbView::parse(payload);
    std::uint64_t sum = 0;
    for (const sttcp::DecisionRecord& d : beat->decisions) sum += d.seq + d.value;
    for (const sttcp::HbRecord& r : beat->records) {
      sum += r.repl_id + r.bytes_received + r.acked_by_peer + r.app_written + r.app_read;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK_CAPTURE(BM_HeartbeatRead, decision_24, kDecisionBeat);
BENCHMARK_CAPTURE(BM_HeartbeatRead, periodic_1721, kRingPeriodicBeat);

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
      if (rb.window() < chunk.size()) rb.consume(1 << 20, [](net::BytesView) {});
    }
    benchmark::DoNotOptimize(rb.consume(1 << 20, [](net::BytesView) {}));
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

void BM_EventLoopScheduleRunCapture48(benchmark::State& state) {
  // BM_EventLoopScheduleRun with a 48-byte capture — the size of a link's
  // (this, port, Frame) arrival lambda, the most common event in a run.
  struct Capture {
    int* sink;
    std::array<std::uint64_t, 5> pad{};
  };
  for (auto _ : state) {
    sim::EventLoop loop;
    int sink = 0;
    const Capture c{&sink};
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(sim::SimTime::from_ns(i * 100),
                       [c] { *c.sink += static_cast<int>(c.pad[0]) + 1; });
    }
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventLoopScheduleRunCapture48);

void BM_OneShotTimerRearm(benchmark::State& state) {
  // The RTO pattern: every ACK re-arms the connection's retransmit timer,
  // cancelling the pending shot and scheduling a new one.
  sim::EventLoop loop;
  sim::OneShotTimer timer(loop);
  int fired = 0;
  for (auto _ : state) {
    timer.arm(sim::Duration::millis(200), [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OneShotTimerRearm);

void BM_SendBufferAppendSliceAck(benchmark::State& state) {
  // Steady bulk send with a 64 KiB window in flight: the application
  // appends an MSS, the newest MSS is copied out for transmission, and the
  // oldest MSS is acknowledged.
  constexpr std::size_t kMss = 1460;
  tcp::SendBuffer buf(256 * 1024);
  const net::Bytes chunk(kMss, 0x5a);
  while (buf.size() < 64 * 1024) buf.append(chunk);
  for (auto _ : state) {
    buf.append(chunk);
    const net::Bytes seg = buf.slice(buf.end_offset() - kMss, kMss);
    benchmark::DoNotOptimize(seg.data());
    buf.ack_to(buf.una_offset() + kMss);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kMss);
}
BENCHMARK(BM_SendBufferAppendSliceAck);

void BM_FrameBuildTcpSegment(benchmark::State& state) {
  // One outgoing full-MSS data segment as TcpStack::emit builds it: one
  // frame block, the TCP header and the payload copied in from the send
  // queue and checksummed in place, then the Ethernet/IPv4 header room
  // filled in. One allocation per frame.
  tcp::SendBuffer sb(1 << 16);
  sb.append(kMssPayload);
  tcp::TcpSegment seg;
  seg.flags.ack = true;
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  const net::MacAddr ma = net::MacAddr::from_u64(1), mb = net::MacAddr::from_u64(2);
  constexpr std::size_t kFrameSize =
      net::kIpFrameHeaderSize + tcp::TcpSegment::kHeaderSize + 1460;
  for (auto _ : state) {
    net::Frame frame = net::Frame::allocate(kFrameSize);
    seg.write(frame.writable().subspan(net::kIpFrameHeaderSize), a, b, sb.spans(0, 1460));
    net::write_ip_headers(frame.writable(), mb, ma, a, b, net::kIpProtoTcp);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kFrameSize);
}
BENCHMARK(BM_FrameBuildTcpSegment);

void BM_TcpReceiveDataSegment(benchmark::State& state) {
  // The receive side of one full-MSS data segment: parse the frame, parse
  // and verify the TCP segment (its payload a view into the frame), append
  // the payload to the reassembly ring and let the application consume it
  // in place. The ring drains on every read, so each insert refills it.
  const net::Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  tcp::TcpSegment seg;
  seg.flags.ack = true;
  net::Frame frame = net::Frame::allocate(net::kIpFrameHeaderSize +
                                          tcp::TcpSegment::kHeaderSize + 1460);
  seg.write(frame.writable().subspan(net::kIpFrameHeaderSize), a, b, {kMssPayload, {}});
  net::write_ip_headers(frame.writable(), net::MacAddr::from_u64(2),
                        net::MacAddr::from_u64(1), a, b, net::kIpProtoTcp);
  tcp::ReassemblyBuffer rb(1 << 16);
  std::uint64_t at = 0;
  for (auto _ : state) {
    const net::ParsedFrame p = net::parse_frame(frame.view());
    const auto parsed = tcp::TcpSegment::parse(p.ip->src, p.ip->dst, p.l4, true);
    rb.insert(at, parsed->payload);
    at += parsed->payload.size();
    std::uint64_t sum = 0;
    rb.consume(1 << 20, [&sum](net::BytesView v) { sum += v[0] + v.size(); });
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1460);
}
BENCHMARK(BM_TcpReceiveDataSegment);

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
  // Per-segment connection demux: one unordered_map probe (std::hash of the
  // tuple, a bucket walk and a full tuple compare) per lookup.
  DemuxRig rig(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.stack->find(rig.tuples[i]));
    if (++i == rig.tuples.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Demux)->Arg(1)->Arg(256)->Arg(2048)->Arg(16384);

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
  struct Entry {
    sim::SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Order {
    bool operator()(const Entry& x, const Entry& y) const {
      if (x.at.ns() != y.at.ns()) return x.at.ns() > y.at.ns();
      return x.seq > y.seq;
    }
  };
  void push(std::uint32_t slot, sim::SimTime at, std::uint64_t seq) {
    if (slot >= ats.size()) ats.resize(slot + 1);
    ats[slot] = at;
    v.push_back(Entry{at, seq, slot});
    std::push_heap(v.begin(), v.end(), Order{});
  }
  std::uint32_t pop_min() {
    std::pop_heap(v.begin(), v.end(), Order{});
    const std::uint32_t slot = v.back().slot;
    v.pop_back();
    return slot;
  }
  sim::SimTime at(std::uint32_t slot) const { return ats[slot]; }
  std::vector<Entry> v;
  std::vector<sim::SimTime> ats;
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
  for (int i = 0; i < armed; ++i) {
    q.push(static_cast<std::uint32_t>(i), next_deadline(), seq++);
  }
  for (auto _ : state) {
    const std::uint32_t slot = q.pop_min();
    now = q.at(slot);
    q.push(slot, next_deadline(), seq++);
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
