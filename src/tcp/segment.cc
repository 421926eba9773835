#include "tcp/segment.h"

#include "net/checksum.h"
#include "net/headers.h"
#include "sim/strings.h"

namespace sttcp::tcp {

std::string TcpFlags::str() const {
  std::string s;
  auto add = [&s](const char* f) {
    if (!s.empty()) s += "|";
    s += f;
  };
  if (syn) add("SYN");
  if (fin) add("FIN");
  if (rst) add("RST");
  if (psh) add("PSH");
  if (ack) add("ACK");
  if (s.empty()) s = "-";
  return s;
}

namespace {

std::uint16_t pack_off_flags(const TcpFlags& flags) {
  std::uint16_t off_flags = std::uint16_t{5} << 12;  // data offset = 5 words
  if (flags.fin) off_flags |= 0x001;
  if (flags.syn) off_flags |= 0x002;
  if (flags.rst) off_flags |= 0x004;
  if (flags.psh) off_flags |= 0x008;
  if (flags.ack) off_flags |= 0x010;
  return off_flags;
}

}  // namespace

net::Bytes TcpSegment::serialize(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip) const {
  net::Bytes out(kHeaderSize + payload.size());
  write(out, src_ip, dst_ip, {payload, {}});
  return out;
}

void TcpSegment::write(std::span<std::uint8_t> out, net::Ipv4Addr src_ip,
                       net::Ipv4Addr dst_ip,
                       std::pair<net::BytesView, net::BytesView> data) const {
  const std::size_t payload_len = data.first.size() + data.second.size();
  net::ByteWriter w(out.first(kHeaderSize + payload_len));
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u16(pack_off_flags(flags));
  w.u16(window);
  const std::size_t ck_at = w.size();
  w.u16(0);  // checksum placeholder
  w.u16(0);  // urgent pointer
  w.bytes(data.first);
  w.bytes(data.second);
  w.patch_u16(ck_at, net::transport_checksum(src_ip, dst_ip, net::kIpProtoTcp,
                                             out.first(kHeaderSize + payload_len)));
}

std::optional<TcpSegment> TcpSegment::parse(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
                                            net::BytesView data, bool verify_checksum) {
  if (data.size() < kHeaderSize) return std::nullopt;
  if (verify_checksum &&
      net::transport_checksum(src_ip, dst_ip, net::kIpProtoTcp, data) != 0) {
    return std::nullopt;
  }
  net::ByteReader r(data);
  TcpSegment s;
  s.src_port = r.u16();
  s.dst_port = r.u16();
  s.seq = r.u32();
  s.ack = r.u32();
  const std::uint16_t off_flags = r.u16();
  const std::size_t header_len = std::size_t{4} * ((off_flags >> 12) & 0xf);
  if (header_len < kHeaderSize || header_len > data.size()) return std::nullopt;
  s.flags.fin = (off_flags & 0x001) != 0;
  s.flags.syn = (off_flags & 0x002) != 0;
  s.flags.rst = (off_flags & 0x004) != 0;
  s.flags.psh = (off_flags & 0x008) != 0;
  s.flags.ack = (off_flags & 0x010) != 0;
  s.window = r.u16();
  (void)r.u16();  // checksum (verified above)
  (void)r.u16();  // urgent pointer
  r.skip(header_len - kHeaderSize);  // options ignored
  s.payload = r.rest();
  return s;
}

std::string TcpSegment::str() const {
  return sim::cat(flags.str(), " seq=", seq, " ack=", ack, " len=", payload.size(),
                  " win=", window);
}

}  // namespace sttcp::tcp
