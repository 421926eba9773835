#include "net/headers.h"

#include <stdexcept>

#include "net/checksum.h"

namespace sttcp::net {

void EthernetHeader::write(ByteWriter& w) const {
  w.bytes(BytesView(dst.bytes().data(), 6));
  w.bytes(BytesView(src.bytes().data(), 6));
  w.u16(ethertype);
}

EthernetHeader EthernetHeader::read(ByteReader& r) {
  EthernetHeader h;
  std::array<std::uint8_t, 6> b{};
  BytesView d = r.bytes(6);
  std::copy(d.begin(), d.end(), b.begin());
  h.dst = MacAddr(b);
  d = r.bytes(6);
  std::copy(d.begin(), d.end(), b.begin());
  h.src = MacAddr(b);
  h.ethertype = r.u16();
  return h;
}

void Ipv4Header::write(ByteWriter& w, std::size_t payload_len) const {
  const std::size_t start = w.size();
  w.u8(0x45);  // version 4, IHL 5
  w.u8(tos);
  w.u16(static_cast<std::uint16_t>(kSize + payload_len));
  w.u16(identification);
  w.u16(0);  // flags / fragment offset: DF not modeled, never fragmented
  w.u8(ttl);
  w.u8(protocol);
  const std::size_t ck_at = w.size();
  w.u16(0);  // checksum placeholder
  w.u32(src.value());
  w.u32(dst.value());
  // Compute header checksum over the 20 bytes just written.
  ChecksumAccumulator acc;
  acc.add_u16(0x4500 | tos);
  acc.add_u16(static_cast<std::uint16_t>(kSize + payload_len));
  acc.add_u16(identification);
  acc.add_u16(0);
  acc.add_u16((std::uint16_t{ttl} << 8) | protocol);
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  w.patch_u16(ck_at, acc.finish());
  (void)start;
}

Ipv4Header Ipv4Header::read(ByteReader& r) {
  Ipv4Header h;
  const std::uint8_t vihl = r.u8();
  if (vihl != 0x45) throw std::runtime_error("Ipv4Header: unsupported version/IHL");
  h.tos = r.u8();
  h.total_length = r.u16();
  h.identification = r.u16();
  (void)r.u16();  // flags/frag
  h.ttl = r.u8();
  h.protocol = r.u8();
  h.checksum = r.u16();
  h.src = Ipv4Addr(r.u32());
  h.dst = Ipv4Addr(r.u32());
  // Verify: re-add all fields including the stored checksum; result must be 0.
  ChecksumAccumulator acc;
  acc.add_u16(0x4500 | h.tos);
  acc.add_u16(h.total_length);
  acc.add_u16(h.identification);
  acc.add_u16(0);
  acc.add_u16((std::uint16_t{h.ttl} << 8) | h.protocol);
  acc.add_u16(h.checksum);
  acc.add_u32(h.src.value());
  acc.add_u32(h.dst.value());
  if (acc.finish() != 0) {
    throw std::runtime_error("Ipv4Header: bad checksum");
  }
  return h;
}

void UdpHeader::write(ByteWriter& w, std::size_t payload_len) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(static_cast<std::uint16_t>(kSize + payload_len));
  w.u16(0);  // checksum patched by write_udp_header (needs pseudo-header)
}

UdpHeader UdpHeader::read(ByteReader& r) {
  UdpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.length = r.u16();
  h.checksum = r.u16();
  return h;
}

void IcmpEcho::write(std::span<std::uint8_t> out) const {
  ByteWriter w(out.first(kSize));
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // code
  w.u16(0);  // checksum placeholder
  w.u16(id);
  w.u16(seq);
  w.patch_u16(2, internet_checksum(out.first(kSize)));
}

std::optional<IcmpEcho> IcmpEcho::parse(BytesView data) {
  if (data.size() < 8) return std::nullopt;
  if (internet_checksum(data) != 0) return std::nullopt;
  ByteReader r(data);
  IcmpEcho e;
  const std::uint8_t type = r.u8();
  if (type != 0 && type != 8) return std::nullopt;
  e.type = static_cast<IcmpType>(type);
  (void)r.u8();   // code
  (void)r.u16();  // checksum (verified above)
  e.id = r.u16();
  e.seq = r.u16();
  return e;
}

void write_ip_headers(std::span<std::uint8_t> frame, MacAddr eth_dst, MacAddr eth_src,
                      Ipv4Addr ip_src, Ipv4Addr ip_dst, std::uint8_t protocol) {
  ByteWriter w(frame.first(kIpFrameHeaderSize));
  EthernetHeader{eth_dst, eth_src, kEtherTypeIpv4}.write(w);
  Ipv4Header ih;
  ih.protocol = protocol;
  ih.src = ip_src;
  ih.dst = ip_dst;
  ih.write(w, frame.size() - kIpFrameHeaderSize);
}

void write_udp_header(std::span<std::uint8_t> segment, Ipv4Addr ip_src, Ipv4Addr ip_dst,
                      std::uint16_t src_port, std::uint16_t dst_port) {
  if (segment.size() < UdpHeader::kSize ||
      segment.size() - UdpHeader::kSize > kMaxUdpPayload) {
    throw std::length_error("write_udp_header: payload does not fit one IPv4 datagram");
  }
  ByteWriter w(segment.first(UdpHeader::kSize));
  UdpHeader{src_port, dst_port, 0, 0}.write(w, segment.size() - UdpHeader::kSize);
  // The pseudo-header checksum covers the whole UDP segment.
  w.patch_u16(6, transport_checksum(ip_src, ip_dst, kIpProtoUdp, segment));
}

ParsedFrame parse_frame(BytesView frame) {
  ByteReader r(frame);
  ParsedFrame p;
  p.eth = EthernetHeader::read(r);
  if (p.eth.ethertype == kEtherTypeIpv4) {
    p.ip = Ipv4Header::read(r);
    const std::size_t l4_len = p.ip->total_length - Ipv4Header::kSize;
    p.l4 = r.bytes(l4_len);
  } else {
    p.l4 = r.rest();
  }
  return p;
}

}  // namespace sttcp::net
