// In-process replay of the daemon's per-session path, one public
// function per layer, for the traced run:
//
//   net       encode_sample_batch_into (agent side), FrameAssembler +
//             decode_sample_batch_view, encode_decision_into
//   counters  InstanceAggregator::add_slot_view / mark_missing_view
//   core      RowValidator::validate, CapacityMonitor::predict_masked_many
//             over blocks of up to 32 windows, flushed at the end of
//             every frame — the daemon's block size and flush points
//
// With kTraced a span (two clock reads) surrounds every call; without
// it one clock pair surrounds the whole replay, which is what the
// tracing overhead is measured against. Nothing is added inside src/.
#include <time.h>

#include <algorithm>
#include <span>

#include "core/monitor_source.h"
#include "core/validate.h"
#include "counters/sampler.h"
#include "harness.h"

namespace hpbench {

namespace {

using namespace hpcap;

constexpr std::size_t kObserveBlock = 32;

inline std::int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

template <bool kTraced>
class Span {
 public:
  explicit Span(double& acc) : acc_(acc) {
    if constexpr (kTraced) t0_ = now_ns();
  }
  ~Span() {
    if constexpr (kTraced) acc_ += static_cast<double>(now_ns() - t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  std::int64_t t0_ = 0;
};

template <bool kTraced>
LayerTimes replay(const Round& round, std::size_t rounds,
                  const std::string& model) {
  using S = Span<kTraced>;
  LayerTimes lt;
  const std::size_t dim = round.dim;
  core::MonitorSource source = core::MonitorSource::from_file(model);
  core::CapacityMonitor monitor = source.instantiate();
  monitor.predictor().reset_history();
  core::RowValidator::Options vopts;
  vopts.dim = dim;
  vopts.max_abs = kMaxAbs;
  core::RowValidator validator(vopts);
  std::vector<counters::InstanceAggregator> aggs;
  for (std::size_t t = 0; t < kTiers; ++t)
    aggs.emplace_back(dim, round.window, kMaxMissingFraction, 0);

  std::vector<net::SampleBatch> frames = round.frames;
  net::BatchArena arena;
  net::FrameAssembler assembler;
  std::vector<std::uint8_t> wire, dwire;
  std::vector<double> block(kObserveBlock * kTiers * dim, 0.0);
  std::vector<std::uint8_t> block_valid(kObserveBlock * kTiers, 0);
  std::vector<core::CoordinatedPredictor::Decision> out(kObserveBlock);
  std::size_t block_windows = 0;
  std::uint32_t window_index = 0;
  lt.decisions.reserve(round.windows() * rounds);

  const auto flush = [&] {
    if (block_windows == 0) return;
    ++lt.blocks;
    {
      S s(lt.observe_ns);
      monitor.predict_masked_many(
          core::WindowBlock{block.data(), block_windows, kTiers, dim},
          block_valid.data(), std::span(out.data(), block_windows));
    }
    for (std::size_t w = 0; w < block_windows; ++w) {
      net::DecisionFrame d;
      d.window_index = window_index++;
      d.state = static_cast<std::uint8_t>(out[w].state);
      d.confident = out[w].confident ? 1 : 0;
      d.degraded = out[w].degraded ? 1 : 0;
      d.hc = out[w].hc;
      d.bottleneck_tier = out[w].bottleneck_tier;
      d.staleness = out[w].staleness;
      {
        S s(lt.decision_encode_ns);
        dwire.clear();
        net::encode_decision_into(d, dwire);
      }
      lt.decisions.push_back(pack(d));
    }
    lt.windows += block_windows;
    block_windows = 0;
  };

  std::uint64_t seq = 0;
  std::uint32_t tick = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (net::SampleBatch& frame : frames) {
      frame.batch_seq = ++seq;
      frame.first_tick = tick;
      tick += static_cast<std::uint32_t>(frame.ticks.size());
      {
        S s(lt.encode_ns);
        wire.clear();
        net::encode_sample_batch_into(frame, wire);
      }
      net::SampleBatchView view;
      {
        S s(lt.decode_ns);
        assembler.append(wire.data(), wire.size());
        const auto ref = assembler.next_ref();
        view = net::decode_sample_batch_view(ref->payload, arena, ref->version);
      }
      ++lt.frames;
      for (const net::TickView& tv : view.ticks) {
        ++lt.ticks;
        bool closed = false;
        double* wrows = block.data() + block_windows * kTiers * dim;
        std::uint8_t* wmask = block_valid.data() + block_windows * kTiers;
        for (std::size_t t = 0; t < kTiers; ++t) {
          const net::TierSlotView& slot = tv.tiers[t];
          counters::InstanceAggregator::SlotView res;
          {
            S s(lt.aggregate_ns);
            res = slot.present ? aggs[t].add_slot_view(slot.values)
                               : aggs[t].mark_missing_view();
          }
          ++lt.slots;
          if (!res.window_closed) continue;
          closed = true;
          double* row = wrows + t * dim;
          if (res.valid) {
            std::copy(res.instance.begin(), res.instance.end(), row);
            core::RowVerdict verdict;
            {
              S s(lt.validate_ns);
              verdict = validator.validate({row, dim});
            }
            ++lt.rows;
            wmask[t] = verdict == core::RowVerdict::kValid ? 1 : 0;
          } else {
            std::fill(row, row + dim, 0.0);
            wmask[t] = 0;
          }
        }
        if (closed && ++block_windows == kObserveBlock) flush();
      }
      flush();
    }
  }
  lt.wall_ns = static_cast<double>(now_ns() - t0);
  return lt;
}

}  // namespace

LayerTimes replay_layers(const Round& round, std::size_t rounds,
                         const std::string& model, bool traced) {
  return traced ? replay<true>(round, rounds, model)
                : replay<false>(round, rounds, model);
}

double span_cost_ns() {
  constexpr std::size_t kN = 1 << 20;
  double acc = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kN; ++i) Span<true> s(acc);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(kN);
}

}  // namespace hpbench
