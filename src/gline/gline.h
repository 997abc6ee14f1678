// G-line wire model with S-CSMA counting.
//
// A G-line is a global 1-bit wire spanning one dimension of the chip:
// any attached transmitter may drive it during a cycle, and the S-CSMA
// sensing circuit lets a receiver learn *how many* transmitters drove it
// that cycle (Krishna et al., HOTI'08), not just the wired-OR. Nominal
// latency is one clock cycle end to end.
//
// The technology supports at most `max_transmitters` (six in the paper)
// per line. Lines with more transmitters are handled per TxPolicy:
//   kReject  — construction fails (strict paper contract; limits the
//              mesh to 7x7);
//   kRelaxed — the line still works but takes ceil(tx/max) cycles,
//              modeling either electrically longer-latency G-lines or
//              chained line segments with relay controllers (both are
//              sketched as future work in §5 of the paper).
//
// A cycle's assertions form one batch, kept in a ring of latency+1
// slots indexed by the assertion cycle: at any cycle t the batches in
// flight were asserted in t-latency .. t. Each slot's flush is an
// engine batch member, so the flushes of one wave share events with
// the core hops around them (docs/PERFORMANCE.md §11).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/engine.h"

namespace glb::gline {

enum class TxPolicy : std::uint8_t { kReject, kRelaxed };

class GLine {
 public:
  /// A receiver gets the S-CSMA transmitter count for one cycle's worth
  /// of assertions (>= 1; quiet cycles produce no callback).
  using Receiver = std::function<void(std::uint32_t count)>;

  /// Fault hook consulted on every batch delivery (fault injection).
  /// Receives the S-CSMA count and returns the possibly corrupted count;
  /// returning 0 suppresses the delivery (the batch was lost).
  using DeliverFaultHook = std::function<std::uint32_t(const GLine&, std::uint32_t)>;

  GLine(sim::Engine& engine, std::string name, std::uint32_t num_transmitters,
        std::uint32_t max_transmitters, TxPolicy policy, Counter* signal_counter);

  // In-flight flushes point into the line, so a GLine must never move;
  // containers hold lines through std::unique_ptr.
  GLine(GLine&&) = delete;
  GLine& operator=(GLine&&) = delete;

  /// Registers a receiver; all receivers observe every batch. The paper
  /// pairs each line with exactly one S-CSMA receiver (the master) for
  /// arrival lines and a broadcast set for release lines.
  void AddReceiver(Receiver r) { receivers_.push_back(std::move(r)); }

  /// One transmitter drives the line during the current cycle.
  /// Assertions within the same cycle merge into one S-CSMA count,
  /// delivered to the receivers `latency()` cycles later.
  void Assert();

  /// Hardware reset: discards every in-flight batch (their delivery
  /// events become no-ops). Used by the barrier network's watchdog
  /// recovery, degradation and rejoin probes.
  void CancelPending();

  bool has_pending() const;

  /// Installs (or clears, with nullptr) the delivery fault hook.
  void SetDeliverFaultHook(DeliverFaultHook hook) { fault_ = std::move(hook); }

  Cycle latency() const { return latency_; }
  std::uint32_t num_transmitters() const { return num_transmitters_; }
  const std::string& name() const { return name_; }

 private:
  /// One assertion cycle's S-CSMA count and its flush.
  struct Batch : sim::Engine::Member {
    GLine* line = nullptr;
    Cycle at = kCycleNever;  // assertion cycle; kCycleNever = empty
    std::uint32_t count = 0;
    /// The slot's flush member is in the engine, queued in `flush_epoch`.
    bool queued = false;
    std::uint64_t flush_epoch = 0;
  };

  static void RunFlush(sim::Engine::Member& m);
  /// Delivers `b`'s count and empties the slot.
  void Flush(Batch& b);

  sim::Engine& engine_;
  std::string name_;
  std::uint32_t num_transmitters_;
  Cycle latency_;
  // Bumped by CancelPending; stale flushes compare and bail out.
  std::uint64_t epoch_ = 0;
  // latency_ + 1 slots, by assertion cycle modulo their number.
  std::vector<Batch> pending_;
  std::vector<Receiver> receivers_;
  Counter* signals_ = nullptr;
  DeliverFaultHook fault_;
};

}  // namespace glb::gline
