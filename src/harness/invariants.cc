#include "harness/invariants.h"

#include <cstdio>
#include <stdexcept>

#include "app/client.h"
#include "harness/block_workload.h"
#include "harness/fnv.h"
#include "harness/topology.h"
#include "harness/workload.h"
#include "net/headers.h"
#include "tcp/segment.h"

namespace sttcp::harness {

namespace {

// Per-invariant detail cap: a systemic failure (e.g. split-brain for the rest
// of the run) would otherwise bury the verdict in thousands of identical
// lines. The total count is always reported.
constexpr int kMaxDetailsPerInvariant = 3;

std::string fmt_u64(const char* format, std::uint64_t a, std::uint64_t b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

}  // namespace

InvariantChecker::Scope InvariantChecker::scope_from(Topology& topo,
                                                     const Options& opt) {
  if (static_cast<std::size_t>(opt.cell) >= topo.cell_count()) {
    throw std::logic_error("InvariantChecker: topology has no such cell");
  }
  Scope s;
  Cell& cell = topo.cell(static_cast<std::size_t>(opt.cell));
  // The watched client: first stack-bearing host in the cell's own shard
  // (for a flat topology that is simply the first stack-bearing host).
  Topology::HostEntry* client = nullptr;
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    if (topo.host(i).with_stack && topo.host(i).shard == cell.shard()) {
      client = &topo.host(i);
      break;
    }
  }
  if (client == nullptr) {
    throw std::logic_error("InvariantChecker: no stack-bearing (client) host");
  }
  s.client_ip = client->ip;
  s.service_ip = cell.service_ip();
  s.client = client->host.get();
  s.primary = &cell.primary();
  s.backup = &cell.backup();
  s.client_stack = client->stack.get();
  s.primary_stack = &cell.primary_stack();
  s.backup_stack = &cell.backup_stack();
  s.primary_ep = cell.primary_endpoint();
  s.backup_ep = cell.backup_endpoint();
  for (int b = 0; b < cell.backup_count(); ++b) {
    s.backups.push_back(&cell.backup_host(b));
    s.backup_stacks.push_back(&cell.backup_stack(b));
    s.backup_eps.push_back(cell.backup_endpoint(b));
  }
  s.sw = &topo.ethernet_switch(static_cast<std::size_t>(cell.switch_id()));
  // Every link in the cell's shard except a logger host's, in creation
  // order: for the Figure-2 LAN that is client, primary, backup,
  // gateway — the historical impairment pre-fork order the 200-seed chaos
  // suite depends on. Shard-locality matters twice: impairment creation
  // forks that shard's RNG, and the corrupt taps must only ever fire on the
  // shard's own thread.
  Topology::HostEntry* logger = topo.host_by_name("logger");
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    if (topo.link_shard(i) != cell.shard()) continue;
    net::Link* l = &topo.link(i);
    if (logger != nullptr && l == logger->link) continue;
    s.links.push_back(l);
  }
  s.hold_cap = topo.config().sttcp.hold_buffer_capacity;
  s.tcp = topo.config().tcp;
  return s;
}

InvariantChecker::InvariantChecker(Topology& topo, Options opt)
    : scope_(scope_from(topo, opt)), opt_(opt) {
  // Create every link's impairment engine up front, in fixed link order. Each
  // creation forks the world rng, so leaving it to the faults would make the
  // fork order (and every later draw) depend on which faults the plan arms.
  for (net::Link* l : scope_.links) {
    l->impairment().set_corrupt_tap(
        [this](const net::Frame& f, std::size_t off) {
          ++corrupt_events_;
          corrupted_[fnv_mix(kDigestSeed, f.view())] = off;
        });
  }

  // Chain in front of whatever tap is already installed (pcap).
  prev_tap_ = scope_.sw->frame_tap();
  scope_.sw->set_frame_tap(
      [this](sim::SimTime at, const net::Frame& frame) {
        on_switch_frame(at, frame);
      });

  const std::vector<net::Host*> hosts = watched_hosts();
  expected_bad_checksum_.assign(hosts.size(), 0);
  for (int i = 0; i < static_cast<int>(hosts.size()); ++i) {
    hosts[static_cast<std::size_t>(i)]->set_rx_tap(
        [this, i](const net::Frame& frame) { on_host_rx(i, frame); });
  }
}

std::vector<net::Host*> InvariantChecker::watched_hosts() const {
  std::vector<net::Host*> hosts = {scope_.client, scope_.primary};
  if (scope_.backups.empty()) {
    hosts.push_back(scope_.backup);
  } else {
    hosts.insert(hosts.end(), scope_.backups.begin(), scope_.backups.end());
  }
  return hosts;
}

std::vector<tcp::TcpStack*> InvariantChecker::watched_stacks() const {
  std::vector<tcp::TcpStack*> stacks = {scope_.client_stack,
                                        scope_.primary_stack};
  if (scope_.backup_stacks.empty()) {
    stacks.push_back(scope_.backup_stack);
  } else {
    stacks.insert(stacks.end(), scope_.backup_stacks.begin(),
                  scope_.backup_stacks.end());
  }
  return stacks;
}

std::string InvariantChecker::watched_name(std::size_t i) const {
  if (i == 0) return "client";
  if (i == 1) return "primary";
  return i == 2 ? "backup" : "backup" + std::to_string(i - 1);
}

int InvariantChecker::member_index(const net::MacAddr& mac) const {
  if (mac == scope_.primary->nic().mac()) return 0;
  for (std::size_t b = 0; b < scope_.backups.size(); ++b) {
    if (mac == scope_.backups[b]->nic().mac()) return 1 + static_cast<int>(b);
  }
  return -1;
}

std::string InvariantChecker::member_name(int m) const {
  if (m == 0) return scope_.primary->name();
  const std::size_t b = static_cast<std::size_t>(m - 1);
  return b < scope_.backups.size() ? scope_.backups[b]->name() : "?";
}

void InvariantChecker::add_streamed(const std::string& invariant,
                                    const std::string& detail) {
  int& n = streamed_counts_[invariant];
  ++n;
  if (n <= kMaxDetailsPerInvariant) streamed_.push_back({invariant, detail});
}

void InvariantChecker::on_switch_frame(sim::SimTime at,
                                       const net::Frame& frame) {
  if (prev_tap_) prev_tap_(at, frame);

  net::ParsedFrame p;
  try {
    p = net::parse_frame(frame.view());
  } catch (const std::exception&) {
    return;  // wire-corrupted IP header: every receiver drops it at parse
  }
  if (!p.ip.has_value() || p.ip->protocol != net::kIpProtoTcp) return;

  // No client-visible RST: a RST the client's own checksum verification
  // would accept must never be on the wire toward it. (A RST bit set by wire
  // corruption fails the checksum and is invisible — parse with verify.)
  // Frames whose wire flags byte has no RST bit cannot be one, so only those
  // with it set pay for the verifying parse.
  constexpr std::size_t kTcpFlagsByte = 13;
  constexpr std::uint8_t kTcpRstBit = 0x04;
  if (p.ip->dst == scope_.client_ip && p.l4.size() > kTcpFlagsByte &&
      (p.l4[kTcpFlagsByte] & kTcpRstBit) != 0) {
    const auto seg =
        tcp::TcpSegment::parse(p.ip->src, p.ip->dst, p.l4, /*verify=*/true);
    if (seg.has_value() && seg->flags.rst) {
      add_streamed("no-client-rst",
                   "RST toward client from " + p.ip->src.str() + " at " + at.str());
    }
  }

  // Split-brain audit over service->client traffic: once the backup has
  // spoken on the service connection (it only does so after STONITH +
  // takeover), the primary must stay silent, modulo frames already in
  // flight. Source MAC tells the two apart; the service IP does not.
  if (p.ip->src == scope_.service_ip && p.ip->dst == scope_.client_ip) {
    if (scope_.backups.size() <= 1) {
      // Classic pair rule, unchanged.
      if (p.eth.src == scope_.backup->nic().mac()) {
        if (first_backup_tx_.is_never()) first_backup_tx_ = at;
      } else if (p.eth.src == scope_.primary->nic().mac() &&
                 !first_backup_tx_.is_never() &&
                 at > first_backup_tx_ + opt_.split_brain_grace) {
        add_streamed("split-brain",
                     "primary transmitted to client at " + at.str() +
                         ", backup took over at " + first_backup_tx_.str());
      }
    } else {
      // Group speaker protocol: the member whose transmission most recently
      // BEGAN holds the floor; each member it superseded may only drain
      // in-flight frames for the grace, then must stay silent. A superseded
      // member transmitting later is dual-active — two unsuppressed servers
      // answering the same connection.
      const int m = member_index(p.eth.src);
      if (m >= 0) {
        if (current_speaker_ < 0) {
          current_speaker_ = m;
          speaker_since_ = at;
        } else if (m != current_speaker_) {
          const auto it = superseded_at_.find(m);
          if (it == superseded_at_.end()) {
            // A fresh claimant (promotion winner): the incumbent is
            // superseded as of now and gets the grace to drain.
            superseded_at_[current_speaker_] = at;
            current_speaker_ = m;
            speaker_since_ = at;
          } else if (at > it->second + opt_.split_brain_grace) {
            add_streamed("split-brain",
                         member_name(m) + " transmitted to client at " +
                             at.str() + " after " +
                             member_name(current_speaker_) +
                             " took over (superseded at " +
                             it->second.str() + ")");
          }
        }
      }
    }
  }
}

void InvariantChecker::on_host_rx(int host_idx, const net::Frame& frame) {
  if (corrupted_.empty()) return;
  const auto it = corrupted_.find(fnv_mix(kDigestSeed, frame.view()));
  if (it == corrupted_.end()) return;

  // A corrupted frame reached a host. Only a flip inside a TCP segment must
  // surface as a stack checksum drop: an IP-header flip dies at IP parse and
  // a UDP flip at the UDP checksum, before any TCP accounting.
  constexpr std::size_t kL4Off =
      net::EthernetHeader::kSize + net::Ipv4Header::kSize;
  const net::BytesView v = frame.view();
  if (it->second < kL4Off || v.size() <= kL4Off) return;
  if (v[net::EthernetHeader::kSize + 9] != net::kIpProtoTcp) return;
  ++expected_bad_checksum_[static_cast<std::size_t>(host_idx)];
}

std::uint64_t InvariantChecker::expected_checksum_drops() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : expected_bad_checksum_) total += n;
  return total;
}

void InvariantChecker::collect_streamed(std::vector<Violation>& out) const {
  out.insert(out.end(), streamed_.begin(), streamed_.end());
  for (const auto& [inv, n] : streamed_counts_) {
    if (n > kMaxDetailsPerInvariant) {
      out.push_back({inv, fmt_u64("%llu occurrences in total (first %llu shown)",
                                  static_cast<std::uint64_t>(n),
                                  kMaxDetailsPerInvariant)});
    }
  }
}

void InvariantChecker::check_checksums(std::vector<Violation>& out) const {
  // Checksum-drop accounting: per stack, exactly the corrupted TCP frames we
  // delivered to that host were dropped for bad checksum. Fewer = a corrupt
  // segment was accepted (and possibly ACKed); more = a clean one rejected.
  const std::vector<tcp::TcpStack*> stacks = watched_stacks();
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    const std::uint64_t got = stacks[i]->stats().bad_checksum;
    if (got != expected_bad_checksum_[i]) {
      out.push_back({"checksum-drop",
                     watched_name(i) + ": " +
                         fmt_u64("%llu checksum drops, expected %llu", got,
                                 expected_bad_checksum_[i])});
    }
  }
}

void InvariantChecker::check_memory(std::vector<Violation>& out,
                                    std::size_t conn_table_cap) const {
  // Bounded memory: hold buffers honour their configured cap, replica
  // pending queues honour the per-tuple cap, connection tables stay within
  // the workload's configured concurrency, and total connection heap stays
  // inside the per-connection socket-buffer budget (no per-flow leak).
  const std::size_t hold_cap = scope_.hold_cap;
  std::vector<sttcp::StTcpEndpoint*> eps = {scope_.primary_ep};
  if (scope_.backup_eps.empty()) {
    eps.push_back(scope_.backup_ep);
  } else {
    eps.insert(eps.end(), scope_.backup_eps.begin(), scope_.backup_eps.end());
  }
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (eps[i] != nullptr && eps[i]->hold_peak_bytes() > hold_cap) {
      out.push_back({"bounded-memory",
                     watched_name(i + 1) + ": " +
                         fmt_u64("hold buffer peak %llu exceeds cap %llu",
                                 eps[i]->hold_peak_bytes(), hold_cap)});
    }
  }
  const tcp::TcpConfig& tc = scope_.tcp;
  // Send buffer at its cap, receive side counted twice (in-order ready bytes
  // plus a window's worth of out-of-order segments), plus fixed-struct slack.
  const std::size_t per_conn =
      tc.send_buffer + 2 * tc.recv_buffer + 4096;
  const std::vector<tcp::TcpStack*> stacks = watched_stacks();
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    const std::size_t pending = stacks[i]->pending_segments();
    const std::size_t cap = tcp::TcpStack::max_buffered_segments() * 8;
    if (pending > cap) {
      out.push_back({"bounded-memory",
                     watched_name(i) + ": " +
                         fmt_u64("%llu replica-buffered segments (cap %llu)",
                                 pending, cap)});
    }
    if (stacks[i]->connection_count() > conn_table_cap) {
      out.push_back({"bounded-memory",
                     watched_name(i) + ": " +
                         fmt_u64("connection table grew to %llu (cap %llu)",
                                 stacks[i]->connection_count(), conn_table_cap)});
    }
    const std::size_t mem = stacks[i]->memory_bytes();
    const std::size_t budget =
        (stacks[i]->connection_count() + 1) * per_conn +
        pending * (sizeof(tcp::TcpSegment) + tc.mss);
    if (mem > budget) {
      out.push_back({"bounded-memory",
                     watched_name(i) + ": " +
                         fmt_u64("stack heap %llu exceeds budget %llu", mem,
                                 budget)});
    }
  }
}

std::vector<Violation> InvariantChecker::check(
    const app::DownloadClient& client) {
  std::vector<Violation> out;
  collect_streamed(out);

  // Stream bit-exactness. Corruption or a reset is a violation regardless of
  // the plan; completion is only demanded of survivable (masked) plans.
  if (client.corrupt()) {
    out.push_back({"stream-exact", "client observed corrupt payload bytes"});
  }
  if (opt_.expect_masked) {
    if (client.connection_failures() != 0) {
      out.push_back({"stream-exact",
                     "client connection failures: " +
                         std::to_string(client.connection_failures())});
    }
    if (!client.complete()) {
      out.push_back({"stream-exact",
                     fmt_u64("download incomplete: %llu of %llu bytes",
                             client.received(), opt_.expected_bytes)});
    } else if (opt_.expected_bytes != 0 &&
               client.received() != opt_.expected_bytes) {
      out.push_back({"stream-exact",
                     fmt_u64("byte count mismatch: received %llu, expected %llu",
                             client.received(), opt_.expected_bytes)});
    }
  }

  check_checksums(out);
  check_memory(out, /*conn_table_cap=*/8);
  return out;
}

void InvariantChecker::check_grey(const sim::TraceRecorder& trace, Node grey,
                                  sim::Duration budget,
                                  std::vector<Violation>& out) const {
  const bool grey_is_primary = grey == Node::kPrimary;
  const std::string& grey_name =
      grey_is_primary ? scope_.primary->name() : scope_.backup->name();
  const std::string& peer_name =
      grey_is_primary ? scope_.backup->name() : scope_.primary->name();

  const auto fault_at = trace.first_time("fault_injected");
  if (!fault_at.has_value()) {
    out.push_back({"grey-conviction", "no fault was ever injected"});
    return;
  }

  // The peer must have convicted the grey host, within budget, on a
  // counter-based criterion.
  const sim::TraceEntry* conviction = nullptr;
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.event == "peer_convicted" && e.component == peer_name) {
      conviction = &e;
      break;
    }
  }
  if (conviction == nullptr) {
    out.push_back({"grey-conviction",
                   peer_name + " never convicted the grey " + grey_name});
  } else {
    if (conviction->at - *fault_at > budget) {
      out.push_back({"grey-conviction",
                     "conviction took " + (conviction->at - *fault_at).str() +
                         " (budget " + budget.str() + ")"});
    }
    if (conviction->detail != "progress_stall_detected" &&
        conviction->detail != "app_failure_detected") {
      out.push_back({"grey-criterion",
                     peer_name + " convicted via \"" + conviction->detail +
                         "\", not a progress-counter criterion — the grey " +
                         grey_name + " was heartbeating throughout"});
    }
  }

  // The grey host must not have convicted its healthy peer.
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.event == "peer_convicted" && e.component == grey_name) {
      out.push_back({"grey-false-conviction",
                     grey_name + " convicted its healthy peer via \"" +
                         e.detail + "\" at " + e.at.str()});
      break;
    }
  }
}

std::vector<Violation> InvariantChecker::check(const Workload& workload) {
  std::vector<Violation> out;
  collect_streamed(out);

  // Every generated flow must have run to completion byte-exact. Corruption
  // is a violation regardless of the plan; completion and no-reset are only
  // demanded of survivable (masked) plans — an unsurvivable crash is allowed
  // to fail flows, just never to hand the client corrupt bytes.
  const Workload::Stats& s = workload.stats();
  if (!workload.drained()) {
    out.push_back({"stream-exact",
                   std::to_string(workload.active_flows()) +
                       " flows still open at end of run (not drained)"});
  }
  if (s.corrupt != 0) {
    out.push_back({"stream-exact",
                   fmt_u64("%llu of %llu started flows observed corrupt "
                           "payload bytes",
                           s.corrupt, s.started)});
  }
  if (opt_.expect_masked) {
    if (s.resets != 0) {
      out.push_back({"no-client-rst",
                     fmt_u64("%llu of %llu started flows were closed by a "
                             "client-visible reset",
                             s.resets, s.started)});
    }
    if (s.failed != 0) {
      out.push_back({"stream-exact",
                     fmt_u64("%llu of %llu started flows failed (short, "
                             "corrupt, or reset)",
                             s.failed, s.started)});
    }
    if (workload.drained() && s.completed + s.failed != s.started) {
      out.push_back({"stream-exact",
                     fmt_u64("flow accounting leak: completed+failed = %llu "
                             "of %llu started",
                             s.completed + s.failed, s.started)});
    }
  }

  check_checksums(out);
  // Under churn the table legitimately holds up to the configured concurrency
  // (plus a straggler margin for connections mid-teardown when the caller's
  // quiet period was tight).
  check_memory(out, /*conn_table_cap=*/workload.config().max_concurrent + 64);
  return out;
}

std::vector<Violation> InvariantChecker::check(const BlockWorkload& workload) {
  std::vector<Violation> out;
  collect_streamed(out);

  // Response-exactness: an oracle mismatch means an acknowledged write was
  // lost or a never-written block returned data — a violation regardless of
  // the plan, exactly like payload corruption in the byte-stream checker.
  const BlockWorkload::Stats& s = workload.stats();
  if (!workload.drained()) {
    out.push_back({"response-exact",
                   "block-store sessions still open at end of run (not "
                   "drained)"});
  }
  if (s.mismatches != 0) {
    out.push_back({"response-exact",
                   fmt_u64("%llu of %llu responses contradicted the client "
                           "oracle (lost acknowledged write or phantom read)",
                           s.mismatches, s.responses)});
  }
  if (s.protocol_errors != 0) {
    out.push_back({"response-exact",
                   fmt_u64("%llu response framing violations across %llu "
                           "responses",
                           s.protocol_errors, s.responses)});
  }
  if (opt_.expect_masked) {
    if (s.resets != 0) {
      out.push_back({"no-client-rst",
                     fmt_u64("%llu of %llu block-store sessions were closed "
                             "by a client-visible reset",
                             s.resets, s.sessions_started)});
    }
    if (s.failed != 0) {
      out.push_back({"response-exact",
                     fmt_u64("%llu of %llu block-store sessions failed "
                             "(short, unanswered, or reset)",
                             s.failed, s.sessions_started)});
    }
    if (s.bad_status != 0) {
      out.push_back({"response-exact",
                     fmt_u64("%llu of %llu responses carried a status the "
                             "oracle did not predict",
                             s.bad_status, s.responses)});
    }
    if (workload.drained() &&
        s.sessions_completed + s.failed != s.sessions_started) {
      out.push_back({"response-exact",
                     fmt_u64("session accounting leak: completed+failed = "
                             "%llu of %llu started",
                             s.sessions_completed + s.failed,
                             s.sessions_started)});
    }
  }

  check_checksums(out);
  // A closed-loop population holds at most one connection per client (plus
  // the mid-teardown straggler margin).
  check_memory(out, /*conn_table_cap=*/workload.config().clients + 64);
  return out;
}

}  // namespace sttcp::harness
