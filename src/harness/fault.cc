#include "harness/fault.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "app/server.h"
#include "harness/topology.h"
#include "sim/random.h"

namespace sttcp::harness {

namespace {

std::string fmt(const char* format, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

/// The machine a Node names, with its switch link: cell 0's members, or the
/// plain host of the same name. Group backups clamp to the highest existing
/// one, so a group schedule remains injectable on a smaller roster (the
/// negative-control replay).
struct Target {
  net::Host& host;
  net::Link& link;
};

Target target_of(Topology& t, Node n) {
  if (n == Node::kClient || n == Node::kGateway) {
    Topology::HostEntry* h = t.host_by_name(to_string(n));
    if (h == nullptr) {
      throw std::logic_error(std::string("fault target: no host named ") + to_string(n));
    }
    return {*h->host, *h->link};
  }
  Cell& c = t.cell(0);
  if (n == Node::kPrimary) return {c.primary(), c.primary_link()};
  const int want = n == Node::kBackup3 ? 2 : n == Node::kBackup2 ? 1 : 0;
  const int i = std::min(want, c.backup_count() - 1);
  return {c.backup_host(i), c.backup_link(i)};
}

net::Host& host_of(Topology& t, Node n) { return target_of(t, n).host; }
net::Link& link_of(Topology& t, Node n) { return target_of(t, n).link; }

}  // namespace

const char* to_string(Node n) {
  switch (n) {
    case Node::kClient: return "client";
    case Node::kPrimary: return "primary";
    case Node::kBackup: return "backup";
    case Node::kGateway: return "gateway";
    case Node::kBackup2: return "backup2";
    case Node::kBackup3: return "backup3";
  }
  return "?";
}

Fault Fault::Crash(Node n) {
  Fault f;
  f.label_ = std::string("crash:") + to_string(n);
  f.action_ = [n](Topology& t) { host_of(t, n).crash("injected HW/OS crash"); };
  return f;
}

Fault Fault::PowerOn(Node n) {
  Fault f;
  f.label_ = std::string("power_on:") + to_string(n);
  f.action_ = [n](Topology& t) {
    t.world().trace().record(to_string(n), "power_on");
    host_of(t, n).power_on();
  };
  return f;
}

Fault Fault::NicFailure(Node n) {
  Fault f;
  f.label_ = std::string("nic_failure:") + to_string(n);
  f.action_ = [n](Topology& t) {
    t.world().trace().record(to_string(n), "nic_failed");
    host_of(t, n).nic().fail();
  };
  return f;
}

Fault Fault::NicRestore(Node n) {
  Fault f;
  f.label_ = std::string("nic_restore:") + to_string(n);
  f.action_ = [n](Topology& t) {
    t.world().trace().record(to_string(n), "nic_restored");
    host_of(t, n).nic().heal();
  };
  return f;
}

Fault Fault::SerialCut() {
  Fault f;
  f.label_ = "serial_cut";
  f.action_ = [](Topology& t) {
    t.world().trace().record("serial", "serial_failed");
    t.cell(0).serial().fail();
  };
  return f;
}

Fault Fault::SerialRestore() {
  Fault f;
  f.label_ = "serial_restore";
  f.action_ = [](Topology& t) {
    t.world().trace().record("serial", "serial_restored");
    t.cell(0).serial().heal();
  };
  return f;
}

Fault Fault::FrameLoss(Node n, int frames) {
  Fault f;
  f.label_ = std::string("frame_loss:") + to_string(n);
  f.action_ = [n, frames](Topology& t) {
    t.world().trace().record(to_string(n), "frame_drop_burst", "", frames);
    link_of(t, n).drop_next(frames);
  };
  return f;
}

Fault Fault::LinkDown(Node n) {
  Fault f;
  f.label_ = std::string("link_down:") + to_string(n);
  f.action_ = [n](Topology& t) {
    t.world().trace().record(to_string(n), "link_down");
    link_of(t, n).fail();
  };
  return f;
}

Fault Fault::LinkUp(Node n) {
  Fault f;
  f.label_ = std::string("link_up:") + to_string(n);
  f.action_ = [n](Topology& t) {
    t.world().trace().record(to_string(n), "link_up");
    link_of(t, n).heal();
  };
  return f;
}

Fault Fault::LinkFlap(Node n, sim::Duration down_for) {
  Fault f;
  f.label_ = std::string("link_flap:") + to_string(n);
  f.action_ = [n, down_for](Topology& t) {
    t.world().trace().record(to_string(n), "link_down");
    link_of(t, n).fail();
    t.world().loop().schedule_after(down_for, [&t, n] {
      t.world().trace().record(to_string(n), "link_up");
      link_of(t, n).heal();
    });
  };
  return f;
}

namespace {

// Shared skeleton for the impairment builders: arm one knob on the node's
// switch link now, stamp paired trace events, and (for window > 0) schedule
// the disarm. `set` assigns the armed value, `clear` restores the idle one —
// both run against the same lazily-created Impairment, so a plan that arms
// several knobs on one link composes naturally.
Fault impairment_fault(std::string label, Node n, sim::Duration window,
                       std::function<void(net::Impairment&)> set,
                       std::function<void(net::Impairment&)> clear) {
  Fault f = Fault::Custom(
      std::move(label),
      [n, window, set = std::move(set), clear = std::move(clear)](Topology& t) {
        t.world().trace().record(to_string(n), "impair_on", "",
                                 static_cast<std::int64_t>(window.ms()));
        set(link_of(t, n).impairment());
        if (!window.is_zero()) {
          t.world().loop().schedule_after(window, [&t, n, clear] {
            t.world().trace().record(to_string(n), "impair_off");
            clear(link_of(t, n).impairment());
          });
        }
      });
  return f;
}

}  // namespace

Fault Fault::Corrupt(Node n, double p, sim::Duration window) {
  return impairment_fault(
      fmt("corrupt:%s(p=%.4f,%s)", to_string(n), p, window.str().c_str()), n,
      window,
      [p](net::Impairment& i) { i.config().corrupt_probability = p; },
      [](net::Impairment& i) { i.config().corrupt_probability = 0.0; });
}

Fault Fault::Duplicate(Node n, double p, sim::Duration window) {
  return impairment_fault(
      fmt("duplicate:%s(p=%.4f,%s)", to_string(n), p, window.str().c_str()), n,
      window,
      [p](net::Impairment& i) { i.config().duplicate_probability = p; },
      [](net::Impairment& i) { i.config().duplicate_probability = 0.0; });
}

Fault Fault::Reorder(Node n, double p, sim::Duration delay,
                     sim::Duration window) {
  return impairment_fault(
      fmt("reorder:%s(p=%.4f,d=%s,%s)", to_string(n), p, delay.str().c_str(),
          window.str().c_str()),
      n, window,
      [p, delay](net::Impairment& i) {
        i.config().reorder_probability = p;
        i.config().reorder_delay = delay;
      },
      [](net::Impairment& i) {
        i.config().reorder_probability = 0.0;
        i.config().reorder_delay = sim::Duration::zero();
      });
}

Fault Fault::BurstLoss(Node n, double p_enter, double p_exit,
                       sim::Duration window) {
  return impairment_fault(
      fmt("burst_loss:%s(in=%.4f,out=%.3f,%s)", to_string(n), p_enter, p_exit,
          window.str().c_str()),
      n, window,
      [p_enter, p_exit](net::Impairment& i) {
        i.config().burst_p_enter = p_enter;
        i.config().burst_p_exit = p_exit;
        i.config().burst_loss = 1.0;
      },
      [](net::Impairment& i) {
        i.config().burst_p_enter = 0.0;
        i.config().burst_p_exit = 0.0;
        // A window may close mid-burst; a stuck Bad state would silently keep
        // losing frames with no armed knob to explain it.
        i.reset_burst_state();
      });
}

Fault Fault::Jitter(Node n, sim::Duration max_jitter, sim::Duration window) {
  return impairment_fault(
      fmt("jitter:%s(max=%s,%s)", to_string(n), max_jitter.str().c_str(),
          window.str().c_str()),
      n, window,
      [max_jitter](net::Impairment& i) { i.config().jitter_max = max_jitter; },
      [](net::Impairment& i) { i.config().jitter_max = sim::Duration::zero(); });
}

Fault Fault::CpuStall(Node n, sim::LagProfile profile) {
  Fault f;
  f.label_ = fmt("cpu_stall:%s(%s)", to_string(n), profile.str().c_str());
  f.action_ = [n, profile](Topology& t) {
    t.world().trace().record(to_string(n), "cpu_stall", profile.str());
    host_of(t, n).cpu_domain().set_lag(profile);
  };
  return f;
}

Fault Fault::SlowNic(Node n, double p, sim::Duration window) {
  // Direction 1 = frames transmitted from the link's switch-side port
  // (topology wiring puts the NIC on port 0, the switch on port 1), i.e.
  // the switch->host direction: the node's RECEIVE path degrades while its
  // own transmissions — heartbeats included — go out clean.
  return impairment_fault(
      fmt("slow_nic:%s(p=%.3f,%s)", to_string(n), p, window.str().c_str()), n,
      window,
      [p](net::Impairment& i) { i.config().oneway_drop[1] = p; },
      [](net::Impairment& i) { i.config().oneway_drop[1] = 0.0; });
}

Fault Fault::AppHang(Node n) {
  Fault f;
  f.label_ = std::string("app_hang:") + to_string(n);
  f.action_ = [n](Topology& t) {
    t.world().trace().record(to_string(n), "app_hang");
    if (app::ServerApp* a = t.cell(0).server_app(host_of(t, n))) a->hang();
  };
  return f;
}

Fault Fault::SerialCorrupt(double corrupt_p, double truncate_p,
                           sim::Duration window) {
  Fault f;
  f.label_ = fmt("serial_corrupt(c=%.3f,t=%.3f,%s)", corrupt_p, truncate_p,
                 window.str().c_str());
  f.action_ = [corrupt_p, truncate_p, window](Topology& t) {
    t.world().trace().record("serial", "impair_on", "",
                             static_cast<std::int64_t>(window.ms()));
    t.cell(0).serial().set_noise(corrupt_p, truncate_p);
    if (!window.is_zero()) {
      t.world().loop().schedule_after(window, [&t] {
        t.world().trace().record("serial", "impair_off");
        t.cell(0).serial().set_noise(0.0, 0.0);
      });
    }
  };
  return f;
}

Fault Fault::Custom(std::string label, std::function<void(Topology&)> action) {
  Fault f;
  f.label_ = std::move(label);
  f.action_ = std::move(action);
  return f;
}

Fault Fault::at(sim::Duration t) const {
  Fault f = *this;
  f.at_ = t;
  return f;
}

Fault Fault::repeat(int times, sim::Duration interval) const {
  Fault f = *this;
  f.times_ = times;
  f.interval_ = interval;
  return f;
}

void inject(Topology& topo, Fault fault) {
  const int times = fault.times_ < 1 ? 1 : fault.times_;
  for (int i = 0; i < times; ++i) {
    const sim::Duration when = fault.at_ + fault.interval_ * i;
    topo.world().loop().schedule_after(when, [&topo, fault] {
      topo.world().trace().record("harness", "fault_injected", fault.label_);
      if (topo.metrics() != nullptr) {
        topo.metrics()->timeline().mark(obs::Milestone::kFaultInjected,
                                        topo.world().now());
      }
      fault.action_(topo);
    });
  }
}

void inject(Topology& topo, const FaultPlan& plan) {
  for (const Fault& f : plan.faults()) inject(topo, f);
}

FaultPlan FaultPlan::Adversarial(std::uint64_t seed) {
  // Own stream, decorrelated from the topology's world rng (which is usually
  // seeded with the same value): the plan must not shift when the world's
  // own draw order evolves.
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  FaultPlan plan;
  int slots = 2 + static_cast<int>(rng.below(3));  // 2..4 faults

  // At most one fatal server fault. Two of these at once (or a fatal fault on
  // both servers) is outside ST-TCP's single-failure model, so such a plan
  // could legitimately stall and would teach the fuzzer nothing.
  bool nic_major = false;
  if (rng.chance(0.6)) {
    const auto when = sim::Duration::millis(static_cast<std::int64_t>(rng.range(120, 600)));
    switch (rng.below(5)) {
      case 0: plan.add(Fault::Crash(Node::kPrimary).at(when)); break;
      case 1: plan.add(Fault::Crash(Node::kBackup).at(when)); break;
      case 2:
        plan.add(Fault::NicFailure(Node::kPrimary).at(when));
        nic_major = true;
        break;
      case 3:
        plan.add(Fault::NicFailure(Node::kBackup).at(when));
        nic_major = true;
        break;
      case 4: plan.add(Fault::SerialCut().at(when)); break;
    }
    --slots;
  }

  constexpr Node kNodes[] = {Node::kClient, Node::kPrimary, Node::kBackup,
                             Node::kGateway};
  bool corrupt_used = false;
  for (int i = 0; i < slots; ++i) {
    const Node n = kNodes[rng.below(4)];
    const auto at = sim::Duration::millis(static_cast<std::int64_t>(rng.range(50, 800)));
    const auto window =
        sim::Duration::millis(static_cast<std::int64_t>(rng.range(200, 1500)));
    std::uint64_t kind = rng.below(6);
    // A NIC-failure major already removes one heartbeat channel; noising the
    // serial channel on top would be a second simultaneous failure.
    if (kind == 5 && nic_major) kind = rng.below(5);
    // Corruption flips exactly one bit per frame, which the 16-bit Internet
    // checksum always catches — but flips on two different links can land in
    // the same frame and cancel. One corrupting link per plan keeps every
    // accepted-despite-corrupt frame a true invariant violation.
    if (kind == 0 && corrupt_used) kind = 1 + rng.below(4);
    switch (kind) {
      case 0:
        plan.add(Fault::Corrupt(n, 0.002 + 0.03 * rng.uniform01(), window).at(at));
        corrupt_used = true;
        break;
      case 1:
        plan.add(Fault::BurstLoss(n, 0.001 + 0.01 * rng.uniform01(),
                                  0.2 + 0.3 * rng.uniform01(), window)
                     .at(at));
        break;
      case 2:
        plan.add(Fault::Duplicate(n, 0.02 + 0.15 * rng.uniform01(), window).at(at));
        break;
      case 3:
        plan.add(Fault::Reorder(
                     n, 0.05 + 0.25 * rng.uniform01(),
                     sim::Duration::millis(static_cast<std::int64_t>(rng.range(1, 8))),
                     window)
                     .at(at));
        break;
      case 4:
        plan.add(Fault::Jitter(
                     n, sim::Duration::millis(static_cast<std::int64_t>(rng.range(1, 5))),
                     window)
                     .at(at));
        break;
      case 5:
        plan.add(Fault::SerialCorrupt(0.05 + 0.35 * rng.uniform01(),
                                      0.15 * rng.uniform01(), window)
                     .at(at));
        break;
    }
  }
  return plan;
}

namespace {

// One shared draw sequence for MultiFailure and MultiFailureInvolvesLeader:
// the victims, the instant, and the garnish depend on the seed only, never
// on the roster size — so a seed names the same schedule at every N.
struct MultiFailureDraw {
  bool leader_involved;
  int victim_a;  // backup index, or -1 for the leader
  int victim_b;  // backup index
  sim::Duration when;
  FaultPlan garnish;
};

MultiFailureDraw draw_multi_failure(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  MultiFailureDraw d;
  // Both victims die at the SAME instant — the schedule is the simultaneous
  // double failure the 1+1 pair cannot mask by definition.
  d.when = sim::Duration::millis(static_cast<std::int64_t>(rng.range(300, 1500)));
  d.leader_involved = rng.chance(0.65);
  if (d.leader_involved) {
    d.victim_a = -1;
    d.victim_b = static_cast<int>(rng.below(2));  // backup or backup2
  } else {
    d.victim_a = 0;
    d.victim_b = 1;
    (void)rng.below(2);  // keep the draw count identical across branches
  }

  // Garnish: 0–2 mild loss-free impairments (same palette as Grey; loss
  // would manufacture extra convictions the sweep asserts cannot happen).
  constexpr Node kNodes[] = {Node::kClient, Node::kPrimary, Node::kBackup,
                             Node::kBackup2};
  const int garnish = static_cast<int>(rng.below(3));
  for (int i = 0; i < garnish; ++i) {
    const Node n = kNodes[rng.below(4)];
    const auto at =
        sim::Duration::millis(static_cast<std::int64_t>(rng.range(50, 700)));
    const auto window =
        sim::Duration::millis(static_cast<std::int64_t>(rng.range(200, 900)));
    switch (rng.below(3)) {
      case 0:
        d.garnish.add(Fault::Jitter(
                          n,
                          sim::Duration::millis(
                              static_cast<std::int64_t>(rng.range(1, 4))),
                          window)
                          .at(at));
        break;
      case 1:
        d.garnish.add(
            Fault::Duplicate(n, 0.02 + 0.08 * rng.uniform01(), window).at(at));
        break;
      case 2:
        d.garnish.add(Fault::Reorder(
                          n, 0.05 + 0.15 * rng.uniform01(),
                          sim::Duration::millis(
                              static_cast<std::int64_t>(rng.range(1, 5))),
                          window)
                          .at(at));
        break;
    }
  }
  return d;
}

Node backup_node(int index) {
  return index >= 2   ? Node::kBackup3
         : index == 1 ? Node::kBackup2
                      : Node::kBackup;
}

}  // namespace

FaultPlan FaultPlan::MultiFailure(std::uint64_t seed, int n_backups) {
  if (n_backups < 1) n_backups = 1;
  const MultiFailureDraw d = draw_multi_failure(seed);
  // Clamp drawn backup indices to the roster; identical draws, smaller cast.
  const auto clamp = [n_backups](int i) {
    return i < n_backups ? i : n_backups - 1;
  };
  FaultPlan plan;
  if (d.victim_a < 0) {
    plan.add(Fault::Crash(Node::kPrimary).at(d.when));
  } else {
    plan.add(Fault::Crash(backup_node(clamp(d.victim_a))).at(d.when));
  }
  plan.add(Fault::Crash(backup_node(clamp(d.victim_b))).at(d.when));
  for (const Fault& f : d.garnish.faults()) plan.add(f);
  return plan;
}

bool FaultPlan::MultiFailureInvolvesLeader(std::uint64_t seed) {
  return draw_multi_failure(seed).leader_involved;
}

FaultPlan FaultPlan::Grey(std::uint64_t seed) {
  // Same stream decorrelation as Adversarial: the plan must not shift when
  // the world's own draw order evolves.
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  FaultPlan plan;

  // Exactly one convictable grey fault, always first in the plan. The CPU
  // stall is HARD (6–12 s, longer than any conviction budget): a duty-cycled
  // stutter lets counters advance between pulses, which TCP masks — that
  // case gets its own masked-no-conviction test, not a sweep slot.
  const Node victim = rng.chance(0.5) ? Node::kPrimary : Node::kBackup;
  const auto when =
      sim::Duration::millis(static_cast<std::int64_t>(rng.range(200, 800)));
  if (rng.chance(0.5)) {
    plan.add(Fault::AppHang(victim).at(when));
  } else {
    const auto stall =
        sim::Duration::millis(static_cast<std::int64_t>(rng.range(6000, 12000)));
    plan.add(Fault::CpuStall(victim, sim::LagProfile::stall(stall)).at(when));
  }

  // Garnish: 0–2 mild, bounded, loss-free impairments. No BurstLoss, no
  // SlowNic, no Corrupt (a checksum drop is loss too): dropped client ACKs
  // freeze the demand-side counters and dropped heartbeats blind a grey
  // host's view of its healthy peer — both manufacture false convictions on
  // a schedule this sweep asserts is clean.
  constexpr Node kNodes[] = {Node::kClient, Node::kPrimary, Node::kBackup,
                             Node::kGateway};
  const int garnish = static_cast<int>(rng.below(3));
  for (int i = 0; i < garnish; ++i) {
    const Node n = kNodes[rng.below(4)];
    const auto at =
        sim::Duration::millis(static_cast<std::int64_t>(rng.range(50, 700)));
    const auto window =
        sim::Duration::millis(static_cast<std::int64_t>(rng.range(200, 900)));
    switch (rng.below(3)) {
      case 0:
        plan.add(Fault::Jitter(
                     n, sim::Duration::millis(static_cast<std::int64_t>(rng.range(1, 4))),
                     window)
                     .at(at));
        break;
      case 1:
        plan.add(Fault::Duplicate(n, 0.02 + 0.08 * rng.uniform01(), window).at(at));
        break;
      case 2:
        plan.add(Fault::Reorder(
                     n, 0.05 + 0.15 * rng.uniform01(),
                     sim::Duration::millis(static_cast<std::int64_t>(rng.range(1, 5))),
                     window)
                     .at(at));
        break;
    }
  }
  return plan;
}

std::string FaultPlan::str() const {
  std::string out;
  for (const Fault& f : faults_) {
    if (!out.empty()) out += "; ";
    out += f.label();
    out += " @" + f.when().str();
    if (f.times() > 1) {
      out += fmt(" x%d/%s", f.times(), f.interval().str().c_str());
    }
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace sttcp::harness
