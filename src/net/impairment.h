// Adversarial link impairments: a deterministic per-link, per-direction
// engine modeling what real LANs do to frames beyond clean loss —
//
//  * Gilbert–Elliott burst loss: a two-state Markov chain (Good/Bad) stepped
//    once per frame; frames are lost with `burst_loss` probability while the
//    direction is in the Bad state, so losses arrive in bursts instead of
//    the uniform i.i.d. loss `Link::set_drop_probability` models.
//  * Bit corruption: exactly ONE bit is flipped, at a byte offset past the
//    Ethernet header. One flip always changes the 16-bit Internet checksum
//    (a ±2^k delta never cancels modulo 0xffff), so every corrupted IP/UDP/
//    TCP frame is provably detectable — which is what makes the
//    "corrupted segments are never ACKed" invariant exactly checkable.
//    Offsets inside the Ethernet header are excluded because real NICs drop
//    FCS-failing frames (equivalent to loss, which Gilbert–Elliott covers).
//    The flip is copy-on-write: the shared frame is copied into a fresh
//    block (Frame::copy_of) and flipped there before anyone else sees it, so
//    every other holder of the original block (fan-out copies, the pcap tap)
//    still sees clean bytes.
//  * Duplication: the frame is delivered twice (the second copy is a
//    refcount bump, not a byte copy) and occupies the wire twice.
//  * Bounded reordering: selected frames get `reorder_delay` of extra
//    latency and are exempted from the link's order-preserving clamp, so
//    they genuinely arrive behind their successors.
//  * Latency jitter: uniform extra delay in [0, jitter_max), clamped by the
//    link so jitter alone never reorders (reordering is its own knob).
//
// All randomness comes from an Rng forked from the scenario world, so an
// impaired run is a pure function of the seed. An idle engine (all knobs
// zero) draws nothing, keeping pre-existing seed-tuned tests bit-identical.
#pragma once

#include <cstdint>
#include <functional>

#include "net/frame.h"
#include "sim/random.h"
#include "sim/time.h"

namespace sttcp::net {

struct ImpairmentConfig {
  // Gilbert–Elliott burst loss.
  double burst_p_enter = 0.0;  // P(Good -> Bad), stepped per frame
  double burst_p_exit = 0.0;   // P(Bad -> Good), stepped per frame
  double burst_loss = 1.0;     // loss probability while Bad

  // One-way i.i.d. loss per direction — the "NIC whose receive (or transmit)
  // side silently drops a fraction of frames" grey failure. Unlike burst
  // loss this is direction-asymmetric by construction: Fault::SlowNic arms
  // exactly one of the two (index = Link port the frames travel TOWARD).
  double oneway_drop[2] = {0.0, 0.0};

  double corrupt_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  sim::Duration reorder_delay;  // extra latency for reordered frames
  sim::Duration jitter_max;     // uniform [0, jitter_max) extra latency

  bool any() const {
    return burst_p_enter > 0.0 || oneway_drop[0] > 0.0 || oneway_drop[1] > 0.0 ||
           corrupt_probability > 0.0 || duplicate_probability > 0.0 ||
           reorder_probability > 0.0 || !jitter_max.is_zero();
  }
};

class Impairment {
 public:
  struct Stats {
    std::uint64_t burst_dropped = 0;
    std::uint64_t oneway_dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
  };

  /// Verdict for one frame offered to an impaired direction.
  struct Plan {
    bool drop = false;
    bool reordered = false;      // exempt from the order-preserving clamp
    int copies = 1;              // 2 when duplicated
    sim::Duration extra_delay;   // jitter or reorder delay
    Frame frame;                 // possibly a corrupted copy-on-write clone
  };

  /// Observes every corrupted frame (the post-flip bytes and the flipped
  /// byte's offset). The invariant checker uses this to account for exactly
  /// which wire bytes must be dropped by a receiver checksum.
  using CorruptTap = std::function<void(const Frame& frame, std::size_t offset)>;

  explicit Impairment(sim::Rng rng) : rng_(rng) {}

  /// Live-tunable knobs; fault builders set individual fields and zero them
  /// when their window closes.
  ImpairmentConfig& config() { return cfg_; }
  const ImpairmentConfig& config() const { return cfg_; }
  bool active() const { return cfg_.any(); }
  /// Forget Gilbert–Elliott state (call when a burst-loss window closes, so
  /// a direction stuck in Bad cannot outlive its fault).
  void reset_burst_state() { burst_bad_[0] = burst_bad_[1] = false; }

  void set_corrupt_tap(CorruptTap tap) { corrupt_tap_ = std::move(tap); }
  const Stats& stats() const { return stats_; }

  /// Decide the fate of one frame traveling in `direction` (0 or 1).
  /// Consumes no randomness when the engine is idle.
  Plan plan(int direction, Frame frame);

 private:
  void corrupt(Frame& frame);

  sim::Rng rng_;
  ImpairmentConfig cfg_;
  bool burst_bad_[2] = {false, false};
  CorruptTap corrupt_tap_;
  Stats stats_;
};

}  // namespace sttcp::net
