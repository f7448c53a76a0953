// The reference computation, the correctness checks and their self-test.
//
// The reference never touches the daemon's aggregation or validation
// code: it forms each window's per-tier mean and validity from the ticks
// the agent sent (gap rule: more than half a window missing discards
// it; ceiling rule: a non-finite or |mean| > 1e18 row is rejected), then
// asks the library's scalar CapacityMonitor::observe_masked for the
// decision. The daemon decides through the batched predict_masked_many,
// so the two paths share only the trained model.
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/model_io.h"
#include "harness.h"
#include "ml/evaluate.h"

namespace hpbench {

using hpcap::net::DecisionFrame;

Got pack(const DecisionFrame& d) {
  Got g;
  g.hc = d.hc;
  g.staleness = d.staleness;
  g.bottleneck = static_cast<std::int8_t>(d.bottleneck_tier);
  g.state = d.state;
  g.confident = d.confident;
  g.degraded = d.degraded;
  return g;
}

namespace {

Got pack(const hpcap::core::CoordinatedPredictor::Decision& d) {
  Got g;
  g.hc = d.hc;
  g.staleness = d.staleness;
  g.bottleneck = static_cast<std::int8_t>(d.bottleneck_tier);
  g.state = static_cast<std::uint8_t>(d.state);
  g.confident = d.confident ? 1 : 0;
  g.degraded = d.degraded ? 1 : 0;
  return g;
}

std::string describe(const Got& g) {
  return "state=" + std::to_string(g.state) +
         " confident=" + std::to_string(g.confident) +
         " degraded=" + std::to_string(g.degraded) +
         " hc=" + std::to_string(g.hc) +
         " bottleneck=" + std::to_string(g.bottleneck) +
         " staleness=" + std::to_string(g.staleness);
}

std::uint64_t stat(const Evidence& e, const char* key) {
  const auto it = e.stats.find(key);
  return it == e.stats.end() ? ~0ULL : it->second;
}

}  // namespace

Expected reference_decisions(const Round& round, std::size_t rounds,
                             const std::string& model) {
  std::ifstream f(model, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open model " + model);
  hpcap::core::CapacityMonitor monitor = hpcap::core::load_monitor(f);
  monitor.predictor().reset_history();

  const std::size_t dim = round.dim, W = round.window;
  const int max_missing =
      static_cast<int>(kMaxMissingFraction * static_cast<double>(W));
  const std::size_t nw = round.windows();
  std::vector<std::vector<std::vector<double>>> rows(
      nw, std::vector<std::vector<double>>(kTiers,
                                           std::vector<double>(dim, 0.0)));
  std::vector<std::vector<std::uint8_t>> masks(
      nw, std::vector<std::uint8_t>(kTiers, 0));
  Expected per_round;
  for (std::size_t w = 0; w < nw; ++w) {
    for (std::size_t t = 0; t < kTiers; ++t) {
      std::vector<double>& mean = rows[w][t];
      int present = 0, missing = 0;
      for (std::size_t k = w * W; k < (w + 1) * W; ++k) {
        if (!round.present[k * kTiers + t]) {
          ++missing;
          continue;
        }
        ++present;
        const double* v = &round.values[(k * kTiers + t) * dim];
        for (std::size_t i = 0; i < dim; ++i) mean[i] += v[i];
      }
      per_round.absent += static_cast<std::uint64_t>(missing);
      if (missing > max_missing || present == 0) {
        std::fill(mean.begin(), mean.end(), 0.0);
        ++per_round.discarded;
        continue;
      }
      bool in_range = true;
      for (double& x : mean) {
        x /= static_cast<double>(present);
        in_range = in_range && std::isfinite(x) && std::fabs(x) <= kMaxAbs;
      }
      masks[w][t] = in_range ? 1 : 0;
      if (!in_range) ++per_round.rejected;
    }
  }

  Expected out;
  out.absent = per_round.absent * rounds;
  out.discarded = per_round.discarded * rounds;
  out.rejected = per_round.rejected * rounds;
  out.decisions.reserve(nw * rounds);
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t w = 0; w < nw; ++w)
      out.decisions.push_back(pack(monitor.observe_masked(rows[w], masks[w])));
  return out;
}

std::string check_decisions(const Evidence& e) {
  for (std::size_t a = 0; a < e.agents->size(); ++a) {
    const auto& got = (*e.agents)[a].got;
    const auto& want = (*e.expected)[a].decisions;
    if (got.size() != want.size())
      return "agent " + std::to_string(a) + ": " +
             std::to_string(got.size()) + " decisions, reference has " +
             std::to_string(want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      if (!(got[i] == want[i]))
        return "agent " + std::to_string(a) + " window " +
               std::to_string(i) + ": daemon " + describe(got[i]) +
               ", reference " + describe(want[i]);
  }
  return "";
}

std::string check_contiguity(const Evidence& e) {
  for (std::size_t a = 0; a < e.agents->size(); ++a) {
    const AgentResult& r = (*e.agents)[a];
    const std::size_t want = r.ticks / e.spec->window;
    if (!r.contiguous)
      return "agent " + std::to_string(a) + ": window_index not contiguous";
    if (r.got.size() != want)
      return "agent " + std::to_string(a) + ": " +
             std::to_string(r.got.size()) + " decisions for " +
             std::to_string(r.ticks) + " ticks, want " +
             std::to_string(want);
  }
  return "";
}

std::string check_stats(const Evidence& e) {
  std::uint64_t ticks = 0, windows = 0, absent = 0, discarded = 0,
                rejected = 0;
  for (std::size_t a = 0; a < e.agents->size(); ++a) {
    const AgentResult& r = (*e.agents)[a];
    ticks += r.ticks;
    windows += r.ticks / e.spec->window;
    absent += (*e.expected)[a].absent;
    discarded += (*e.expected)[a].discarded;
    rejected += (*e.expected)[a].rejected;
  }
  const auto expect = [&](const char* key, std::uint64_t want) {
    const std::uint64_t have = stat(e, key);
    return have == want ? std::string()
                        : std::string(key) + " = " + std::to_string(have) +
                              ", want " + std::to_string(want);
  };
  for (const std::string& s :
       {expect("ticks_in", ticks),
        expect("slots_present", ticks * kTiers - absent),
        expect("slots_missing", absent),
        expect("windows_discarded", discarded),
        expect("rows_rejected", rejected), expect("decisions", windows),
        expect("batches_deduped", 0), expect("decisions_shed", 0)})
    if (!s.empty()) return s;
  if (stat(e, "slots_present") + stat(e, "slots_missing") !=
      stat(e, "ticks_in") * kTiers)
    return "slots_present + slots_missing != ticks_in x tiers";
  return "";
}

std::string check_states(const Evidence& e) {
  for (std::size_t a = 0; a < e.agents->size(); ++a) {
    bool seen[2] = {false, false};
    for (const Got& g : (*e.agents)[a].got) {
      if (g.state > 1) return "agent " + std::to_string(a) + ": bad state";
      seen[g.state] = true;
      if (g.state == 1 && g.bottleneck != 0 && g.bottleneck != 1)
        return "agent " + std::to_string(a) +
               ": overloaded decision names tier " +
               std::to_string(g.bottleneck);
    }
    if (!seen[0] || !seen[1])
      return "agent " + std::to_string(a) + ": stream never " +
             (seen[0] ? "overloaded" : "healthy");
  }
  return "";
}

std::string check_labels(const Evidence& e) {
  for (const HeldOut& h : *e.heldout)
    if (h.labels != h.relabeled)
      return h.name + ": archived labels differ from the health columns";
  return "";
}

std::string check_accuracy(const Evidence& e, std::vector<double>* ba) {
  if (e.ba_floor.empty()) return "";
  std::vector<hpcap::ml::Confusion> conf(e.heldout->size());
  for (std::size_t a = 0; a < e.agents->size(); ++a) {
    const Round& round = *e.rounds[a];
    const auto& got = (*e.agents)[a].got;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::size_t w = i % round.windows();
      const auto trace = static_cast<std::size_t>(round.trace_of_window[w]);
      const auto inst = static_cast<std::size_t>(round.instance_of_window[w]);
      conf[trace].add((*e.heldout)[trace].labels[inst], got[i].state);
    }
  }
  std::string why;
  for (std::size_t t = 0; t < conf.size(); ++t) {
    const double b = conf[t].balanced_accuracy();
    if (ba) ba->push_back(b);
    if (why.empty() && !(b >= e.ba_floor[t]))
      why = (*e.heldout)[t].name + ": balanced accuracy " +
            std::to_string(b) + " below floor " +
            std::to_string(e.ba_floor[t]);
  }
  return why;
}

std::string self_test(Evidence& e, std::size_t* caught) {
  auto& got = (*e.agents)[0].got;
  if (got.empty()) return "no decisions to mutate";
  const std::size_t at = got.size() / 2;
  std::string why;
  const auto must_fail = [&](const std::string& what,
                             const std::string& result) {
    if (result.empty()) {
      if (why.empty()) why = "check passed with " + what + " altered";
    } else {
      ++*caught;
    }
  };

  // One decision field at a time.
  const Got keep = got[at];
  const auto field = [&](const char* name, auto mutate) {
    mutate(got[at]);
    must_fail(std::string("decision ") + name, check_decisions(e));
    got[at] = keep;
  };
  field("state", [](Got& g) { g.state ^= 1; });
  field("confident", [](Got& g) { g.confident ^= 1; });
  field("degraded", [](Got& g) { g.degraded ^= 1; });
  field("hc", [](Got& g) { g.hc += 1; });
  field("bottleneck", [](Got& g) { g.bottleneck = g.bottleneck == 0 ? 1 : 0; });
  field("staleness", [](Got& g) { g.staleness += 1; });

  // An overloaded decision naming a third tier.
  for (Got& g : got) {
    if (g.state != 1) continue;
    const Got k = g;
    g.bottleneck = 2;
    must_fail("overloaded bottleneck tier", check_states(e));
    g = k;
    break;
  }

  // A gap in window_index.
  (*e.agents)[0].contiguous = false;
  must_fail("window_index", check_contiguity(e));
  (*e.agents)[0].contiguous = true;

  // Each STATS count the checks read.
  for (const char* key :
       {"ticks_in", "slots_present", "slots_missing", "windows_discarded",
        "rows_rejected", "decisions", "batches_deduped", "decisions_shed"}) {
    auto it = e.stats.find(key);
    if (it == e.stats.end()) {
      if (why.empty()) why = std::string("STATS lacks ") + key;
      continue;
    }
    it->second += 1;
    must_fail(std::string("STATS ") + key, check_stats(e));
    it->second -= 1;
  }

  // One held-out label.
  if (!e.heldout->empty() && !(*e.heldout)[0].labels.empty()) {
    int& label = (*e.heldout)[0].labels[0];
    label ^= 1;
    must_fail("held-out label", check_labels(e));
    label ^= 1;
  }

  // Each injected-fault tally of the reference.
  Expected& x = (*e.expected)[0];
  for (std::uint64_t* tally : {&x.absent, &x.discarded, &x.rejected}) {
    *tally += 1;
    must_fail("injected-fault tally", check_stats(e));
    *tally -= 1;
  }
  return why;
}

}  // namespace hpbench
