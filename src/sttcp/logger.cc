#include "sttcp/logger.h"

#include "tcp/seq.h"

namespace sttcp::sttcp {

namespace {
constexpr std::uint8_t kLoggerRequestType = 0x21;
constexpr std::uint8_t kLoggerReplyType = 0x22;
}  // namespace

net::Bytes LoggerRequest::serialize() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.u8(kLoggerRequestType);
  w.u32(client_ip.value());
  w.u16(client_port);
  w.u16(service_port);
  w.u64(offset);
  w.u32(length);
  return out;
}

std::optional<LoggerRequest> LoggerRequest::parse(net::BytesView data) {
  try {
    net::ByteReader r(data);
    if (r.u8() != kLoggerRequestType) return std::nullopt;
    LoggerRequest q;
    q.client_ip = net::Ipv4Addr(r.u32());
    q.client_port = r.u16();
    q.service_port = r.u16();
    q.offset = r.u64();
    q.length = r.u32();
    return q;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

net::Bytes LoggerReply::serialize() const {
  net::Bytes out;
  out.reserve(21 + data.size());
  net::ByteWriter w(out);
  w.u8(kLoggerReplyType);
  w.u32(client_ip.value());
  w.u16(client_port);
  w.u16(service_port);
  w.u64(offset);
  w.u32(static_cast<std::uint32_t>(data.size()));
  w.bytes(data);
  return out;
}

std::optional<LoggerReply> LoggerReply::parse(net::BytesView data) {
  try {
    net::ByteReader r(data);
    if (r.u8() != kLoggerReplyType) return std::nullopt;
    LoggerReply q;
    q.client_ip = net::Ipv4Addr(r.u32());
    q.client_port = r.u16();
    q.service_port = r.u16();
    q.offset = r.u64();
    const std::uint32_t len = r.u32();
    q.data = net::to_bytes(r.bytes(len));
    return q;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

StreamLogger::StreamLogger(net::Host& host, Config config)
    : host_(host), cfg_(config), log_(host.logger().child("logger")) {
  host_.set_l4_handler(net::kIpProtoTcp,
                       [this](const net::Ipv4Header& ip, net::BytesView l4,
                              const net::Frame&) { on_tcp(ip, l4); });
  host_.udp_bind(cfg_.udp_port, [this](net::Ipv4Addr src, std::uint16_t sport,
                                       net::BytesView payload) {
    on_request(src, sport, payload);
  });
}

void StreamLogger::on_tcp(const net::Ipv4Header& ip, net::BytesView l4) {
  // Only the client->service direction is logged.
  if (ip.dst != cfg_.service_ip) return;
  auto seg = tcp::TcpSegment::parse(ip.src, ip.dst, l4, /*verify_checksum=*/true);
  if (!seg.has_value()) return;
  ++stats_.segments_seen;

  const StreamKey key{ip.src.value(), seg->src_port, seg->dst_port};
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    if (!seg->flags.syn) return;  // mid-stream capture unsupported: need IRS
    auto s = std::make_unique<Stream>(cfg_.window);
    s->have_irs = true;
    s->irs = seg->seq;
    it = streams_.emplace(key, std::move(s)).first;
    ++stats_.streams;
  }
  Stream& s = *it->second;
  if (seg->payload.empty()) return;
  const tcp::SeqAbs seq_abs =
      tcp::unwrap32(seg->seq, s.irs + 1 + s.reasm.next_expected());
  if (seq_abs < s.irs + 1) return;  // SYN-overlap edge
  const std::uint64_t offset = seq_abs - s.irs - 1;
  s.reasm.insert(offset, seg->payload);
  // Drain everything contiguous into the retention log.
  const std::size_t drained = s.reasm.consume(1 << 30, [&s](net::BytesView in) {
    s.log.insert(s.log.end(), in.begin(), in.end());
  });
  if (drained > 0) {
    stats_.bytes_logged += drained;
    if (s.log.size() > cfg_.retention) {
      const std::size_t drop = s.log.size() - cfg_.retention;
      s.log.erase(s.log.begin(), s.log.begin() + static_cast<std::ptrdiff_t>(drop));
      s.log_start += drop;
    }
  }
}

std::uint64_t StreamLogger::logged_bytes(net::Ipv4Addr client_ip,
                                         std::uint16_t client_port,
                                         std::uint16_t service_port) const {
  auto it = streams_.find(StreamKey{client_ip.value(), client_port, service_port});
  if (it == streams_.end()) return 0;
  return it->second->log_start + it->second->log.size();
}

void StreamLogger::on_request(net::Ipv4Addr src, std::uint16_t src_port,
                              net::BytesView payload) {
  auto req = LoggerRequest::parse(payload);
  if (!req.has_value()) return;
  auto it = streams_.find(
      StreamKey{req->client_ip.value(), req->client_port, req->service_port});
  if (it == streams_.end()) return;
  const Stream& s = *it->second;

  LoggerReply rep;
  rep.client_ip = req->client_ip;
  rep.client_port = req->client_port;
  rep.service_port = req->service_port;
  rep.offset = req->offset;
  if (req->offset >= s.log_start &&
      req->offset < s.log_start + s.log.size()) {
    const std::size_t begin = static_cast<std::size_t>(req->offset - s.log_start);
    const std::size_t n =
        std::min<std::size_t>({req->length, s.log.size() - begin, 1200});
    rep.data.assign(s.log.begin() + static_cast<std::ptrdiff_t>(begin),
                    s.log.begin() + static_cast<std::ptrdiff_t>(begin + n));
  }
  ++stats_.requests_served;
  stats_.bytes_served += rep.data.size();
  host_.world().trace().record(host_.name(), "logger_served", "",
                               static_cast<std::int64_t>(rep.data.size()));
  host_.udp_send(host_.first_ip(), cfg_.udp_port, src, src_port, rep.serialize());
}

}  // namespace sttcp::sttcp
