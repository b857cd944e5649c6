// Message-traffic accounting for the distributed TME execution.
//
// Every inter-node transfer in the parallel pipeline is logged here, so the
// paper's Sec. III.C communication-cost formulas can be checked against
// *measured* message volumes rather than estimates.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tme::obs {
class Counter;
}

namespace tme::par {

struct PhaseTraffic {
  std::string phase;
  std::size_t messages = 0;
  std::size_t words = 0;     // grid values moved (4-byte words on the chip)
  std::size_t max_hops = 0;  // longest torus route used in the phase
  // Sum of words x hops over the phase's transfers: the link-level load the
  // per-link telemetry (hw/link_stats) must conserve — on a healthy machine
  // sum(per-link bytes) == 4 x total_word_hops().
  std::size_t word_hops = 0;
};

class TrafficLog {
 public:
  // Accumulates into the named phase (created on first use, order kept) and
  // mirrors the transfer into the metrics registry's par/traffic/* counters.
  void add(const std::string& phase, std::size_t messages, std::size_t words,
           std::size_t hops);

  const std::vector<PhaseTraffic>& phases() const { return phases_; }
  std::size_t total_words() const;
  std::size_t total_messages() const;
  std::size_t total_word_hops() const;

  // Words of the phase, 0 if absent.
  std::size_t words_in(const std::string& phase) const;

  std::string report() const;

 private:
  std::vector<PhaseTraffic> phases_;
  // Registry counter par/traffic/<phase>/words of each phase, resolved when
  // the phase is first seen (null with metrics compiled out).  Registry
  // counters are never erased, so the handles outlive any log.
  std::vector<obs::Counter*> phase_words_;
};

}  // namespace tme::par
