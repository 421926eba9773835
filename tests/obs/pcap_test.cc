// PCAP golden tests: byte-exact file header, record round-trip through the
// independent reader, and an end-to-end capture of a real simulated TCP
// handshake via the Figure-2 switch frame tap.
#include "obs/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::obs {
namespace {

std::vector<std::uint8_t> bytes_of(const std::ostringstream& out) {
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> fake_frame(std::size_t len, std::uint8_t fill) {
  return std::vector<std::uint8_t>(len, fill);
}

TEST(PcapWriterTest, FileHeaderIsByteExactLittleEndian) {
  std::ostringstream out;
  PcapWriter w(out);
  EXPECT_TRUE(w.ok());
  const auto b = bytes_of(out);
  ASSERT_EQ(b.size(), 24u);
  // Magic 0xa1b2c3d4 little-endian, version 2.4, zone/sigfigs 0,
  // snaplen 65535, network LINKTYPE_ETHERNET (1).
  const std::uint8_t golden[24] = {0xd4, 0xc3, 0xb2, 0xa1, 0x02, 0x00, 0x04, 0x00,
                                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                   0xff, 0xff, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00};
  for (int i = 0; i < 24; ++i) EXPECT_EQ(b[static_cast<size_t>(i)], golden[i]) << i;
}

TEST(PcapWriterTest, HandshakeRoundTripsThroughReader) {
  // A synthetic three-way handshake: two 74-byte SYN/SYN-ACK frames (MAC +
  // IP + TCP with options) and a 66-byte ACK, at 1 ms / 1.1 ms / 1.2 ms.
  std::ostringstream out;
  PcapWriter w(out);
  const sim::SimTime t0 = sim::SimTime::zero();
  w.record(t0 + sim::Duration::micros(1000), fake_frame(74, 0x01));
  w.record(t0 + sim::Duration::micros(1100), fake_frame(74, 0x02));
  w.record(t0 + sim::Duration::micros(1200), fake_frame(66, 0x03));
  EXPECT_EQ(w.frames_written(), 3u);
  w.flush();

  const auto parsed = PcapReader::parse(bytes_of(out));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->magic, kPcapMagic);
  EXPECT_EQ(parsed->version_major, kPcapVersionMajor);
  EXPECT_EQ(parsed->version_minor, kPcapVersionMinor);
  EXPECT_EQ(parsed->snaplen, kPcapSnapLen);
  EXPECT_EQ(parsed->linktype, kLinkTypeEthernet);
  ASSERT_EQ(parsed->records.size(), 3u);
  EXPECT_EQ(parsed->records[0].frame.size(), 74u);
  EXPECT_EQ(parsed->records[1].frame.size(), 74u);
  EXPECT_EQ(parsed->records[2].frame.size(), 66u);
  EXPECT_EQ(parsed->records[0].ts_ns, 1'000'000);
  EXPECT_EQ(parsed->records[1].ts_ns, 1'100'000);
  EXPECT_EQ(parsed->records[2].ts_ns, 1'200'000);
  EXPECT_EQ(parsed->records[0].frame[0], 0x01);
  EXPECT_EQ(parsed->records[2].frame[0], 0x03);
}

TEST(PcapReaderTest, RejectsMalformedInput) {
  EXPECT_FALSE(PcapReader::parse({}).has_value());
  const auto junk = fake_frame(24, 0xee);
  EXPECT_FALSE(PcapReader::parse(junk).has_value());  // bad magic
  // Truncated record: valid header then half a record header.
  std::ostringstream out;
  PcapWriter w(out);
  w.record(sim::SimTime::zero(), fake_frame(60, 0));
  auto b = bytes_of(out);
  b.resize(b.size() - 30);
  EXPECT_FALSE(PcapReader::parse(b).has_value());
}

TEST(PcapScenarioTest, CapturesARealHandshakeToDisk) {
  const std::string path = ::testing::TempDir() + "sttcp_handshake.pcap";
  {
    harness::TopologyConfig cfg;
    cfg.pcap_path = path;
    const auto topo = harness::make_figure2(std::move(cfg));
    harness::Cell& cell = topo->cell();
    harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 100'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 100'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 100'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(2));
    ASSERT_TRUE(client.complete());
    ASSERT_NE(topo->pcap(), nullptr);
    EXPECT_GT(topo->pcap()->frames_written(), 3u);
    topo->pcap()->flush();

    const auto parsed = PcapReader::parse_file(path);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->magic, kPcapMagic);
    EXPECT_EQ(parsed->linktype, kLinkTypeEthernet);
    EXPECT_EQ(parsed->records.size(), topo->pcap()->frames_written());
    std::int64_t prev_ts = -1;
    for (const PcapRecord& r : parsed->records) {
      EXPECT_GE(r.frame.size(), 12u);  // at least the Ethernet MAC pair
      EXPECT_LE(r.frame.size(), kPcapSnapLen);
      EXPECT_GE(r.ts_ns, prev_ts);  // switch-ingress order == time order
      prev_ts = r.ts_ns;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttcp::obs
