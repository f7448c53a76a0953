// Shared declarations of the hpbench harness: workload inputs, the
// independent reference computation, the checks and the in-process
// layer replay. See README.md in this directory for what each workload
// runs and why.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace hpbench {

constexpr std::size_t kTiers = 2;
// The daemon's default validator ceiling (ServerConfig::validator_max_abs)
// and gap tolerance (ServerConfig::max_missing_fraction), restated here
// so the reference computation does not read them from the program.
constexpr double kMaxAbs = 1e18;
constexpr double kMaxMissingFraction = 0.5;

struct WorkloadSpec {
  std::string name;
  std::string learner;          // bundle learner (hpcapctl train)
  std::size_t reactors = 1;
  std::string shard_mode;       // "" = daemon default
  std::size_t agents = 1;
  std::uint16_t window = 1;     // ticks per decision window
  std::size_t frame_ticks = 64; // ticks per SAMPLE_BATCH frame
  bool open_loop = false;
  double rate_ticks_per_s = 0;  // combined, open loop only
  bool faults = false;
};

const WorkloadSpec* find_workload(const std::string& name);

// One held-out instance stream (hpcapctl collect --recipe test).
struct HeldOut {
  std::string name;                  // trace file stem, e.g. "ordering"
  std::vector<std::vector<double>> rows;  // [instance] tiers*dim, row-major
  std::vector<std::uint8_t> valid;   // [instance*tiers]
  std::vector<int> labels;           // as archived
  std::vector<int> relabeled;        // recomputed from the health columns
};

// A round: the repeating unit of one agent's stream. Every run sends a
// whole number of rounds, so tallies and shares are exact multiples.
struct Round {
  std::size_t dim = 0;
  std::uint16_t window = 1;
  std::size_t ticks = 0;
  std::vector<double> values;          // [tick][tier][dim]
  std::vector<std::uint8_t> present;   // [tick][tier]
  std::vector<int> trace_of_window;    // held-out trace index per window
  std::vector<int> instance_of_window; // instance index within that trace
  std::vector<hpcap::net::SampleBatch> frames;  // prebuilt wire frames
  std::size_t windows() const { return ticks / window; }
};

// A decision as received, without its window index (checked on receipt).
struct Got {
  std::int32_t hc = 0;
  std::int32_t staleness = 0;
  std::int8_t bottleneck = -1;
  std::uint8_t state = 0, confident = 0, degraded = 0;
  bool operator==(const Got&) const = default;
};
Got pack(const hpcap::net::DecisionFrame& d);

// What one agent saw. Times are CLOCK_MONOTONIC nanoseconds.
struct AgentResult {
  std::size_t rounds = 0, frames = 0, ticks = 0;
  std::vector<Got> got;
  std::vector<float> latency_us;
  std::vector<float> arrival_s;  // since the timed phase began
  bool contiguous = true;  // window_index ran 0,1,2,... on receipt
  std::size_t hellos = 0, hellos_failed = 0;  // over every daemon start
  std::int64_t hello_done_ns = 0, first_send_ns = 0, last_decision_ns = 0;
  std::int64_t client_cpu_ns = 0;
  std::vector<double> cpu_by_slice;  // client_cpu_ns per half-second slice
  double late_mean_us = 0, late_max_us = 0;  // open-loop generator lag
  std::string error;
};

// The independent computation's per-window product.
struct Expected {
  std::vector<Got> decisions;  // across all rounds sent
  std::uint64_t absent = 0, discarded = 0, rejected = 0;
};

// Forms each window's mean and validity from the round's ticks, then
// runs the library's scalar observe_masked on a monitor loaded from
// `model` for `rounds` repetitions of the round.
Expected reference_decisions(const Round& round, std::size_t rounds,
                             const std::string& model);

// Everything the checks look at. The self-test mutates copies of it.
struct Evidence {
  const WorkloadSpec* spec = nullptr;
  std::vector<const Round*> rounds;          // per agent
  std::vector<AgentResult>* agents = nullptr;
  std::vector<Expected>* expected = nullptr; // per agent
  std::map<std::string, std::uint64_t> stats;
  std::vector<HeldOut>* heldout = nullptr;
  std::vector<double> ba_floor;              // per held-out trace (or empty)
};

// Each returns "" on pass or a one-line reason.
std::string check_decisions(const Evidence& e);
std::string check_contiguity(const Evidence& e);
std::string check_stats(const Evidence& e);
std::string check_states(const Evidence& e);
std::string check_labels(const Evidence& e);
std::string check_accuracy(const Evidence& e, std::vector<double>* ba);

// Alters one decision field, one STATS count, one label and one
// injected-fault tally in turn and requires the matching check to fail.
// Returns "" when every check caught its mutation; `caught` counts them.
std::string self_test(Evidence& e, std::size_t* caught);

// Per-layer times from replaying an agent's first `rounds` rounds in
// process through the layers' public functions.
struct LayerTimes {
  double encode_ns = 0, decode_ns = 0, aggregate_ns = 0, validate_ns = 0,
         observe_ns = 0, decision_encode_ns = 0;
  // Calls of each span: encode and decode once per frame, aggregate per
  // slot, validate per row, observe per block, decision encode per window.
  std::size_t frames = 0, ticks = 0, slots = 0, rows = 0, windows = 0,
              blocks = 0;
  double wall_ns = 0;  // whole replay
  std::vector<Got> decisions;
};
LayerTimes replay_layers(const Round& round, std::size_t rounds,
                         const std::string& model, bool traced);
// Cost of one empty span on this host, in ns.
double span_cost_ns();

}  // namespace hpbench
