#include "par/traffic.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace tme::par {

void TrafficLog::add(const std::string& phase, std::size_t messages,
                     std::size_t words, std::size_t hops) {
  std::size_t i = 0;
  while (i < phases_.size() && phases_[i].phase != phase) ++i;
  if (i == phases_.size()) {
    phases_.push_back({phase, 0, 0, 0, 0});
    obs::Counter* counter = nullptr;
    if constexpr (obs::kMetricsEnabled) {
      std::string key = phase;
      std::replace(key.begin(), key.end(), ' ', '_');
      counter = &obs::Registry::global().counter("par/traffic/" + key + "/words");
    }
    phase_words_.push_back(counter);
  }
  PhaseTraffic& p = phases_[i];
  p.messages += messages;
  p.words += words;
  p.max_hops = std::max(p.max_hops, hops);
  p.word_hops += words * hops;
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& total_messages =
        obs::Registry::global().counter("par/traffic/messages");
    static obs::Counter& total_words = obs::Registry::global().counter("par/traffic/words");
    total_messages.add(messages);
    total_words.add(words);
    phase_words_[i]->add(words);
  }
}

std::size_t TrafficLog::total_words() const {
  std::size_t sum = 0;
  for (const PhaseTraffic& p : phases_) sum += p.words;
  return sum;
}

std::size_t TrafficLog::total_messages() const {
  std::size_t sum = 0;
  for (const PhaseTraffic& p : phases_) sum += p.messages;
  return sum;
}

std::size_t TrafficLog::total_word_hops() const {
  std::size_t sum = 0;
  for (const PhaseTraffic& p : phases_) sum += p.word_hops;
  return sum;
}

std::size_t TrafficLog::words_in(const std::string& phase) const {
  for (const PhaseTraffic& p : phases_) {
    if (p.phase == phase) return p.words;
  }
  return 0;
}

std::string TrafficLog::report() const {
  std::string out =
      "  phase                        messages        words     max hops\n";
  char buf[160];
  for (const PhaseTraffic& p : phases_) {
    std::snprintf(buf, sizeof(buf), "  %-28s %8zu %12zu %12zu\n", p.phase.c_str(),
                  p.messages, p.words, p.max_hops);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-28s %8zu %12zu\n", "TOTAL",
                total_messages(), total_words());
  out += buf;
  return out;
}

}  // namespace tme::par
