// Unit tests for the TPC-W workload layer: interaction catalog, mixes,
// request factory, RBE and workload schedules.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/event_queue.h"
#include "tpcw/interactions.h"
#include "tpcw/mix.h"
#include "tpcw/rbe.h"
#include "tpcw/request_factory.h"
#include "tpcw/schedule.h"
#include "util/stats.h"

namespace hpcap::tpcw {
namespace {

TEST(Interactions, CatalogHasFourteenEntries) {
  EXPECT_EQ(interaction_catalog().size(), 14u);
  EXPECT_EQ(kNumInteractions, 14);
}

TEST(Interactions, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto& p : interaction_catalog()) names.insert(p.name);
  EXPECT_EQ(names.size(), 14u);
}

TEST(Interactions, CatalogIndexMatchesEnum) {
  for (int i = 0; i < kNumInteractions; ++i)
    EXPECT_EQ(static_cast<int>(interaction_catalog()[i].type), i);
}

TEST(Interactions, BrowseOrderSplitMatchesSpec) {
  // TPC-W: Browse = {Home, NewProducts, BestSellers, ProductDetail,
  // SearchRequest, SearchResults}; Order = the remaining eight.
  int browse = 0;
  for (const auto& p : interaction_catalog())
    browse += p.request_class == sim::RequestClass::kBrowse;
  EXPECT_EQ(browse, 6);
  EXPECT_TRUE(is_browse(Interaction::kBestSellers));
  EXPECT_FALSE(is_browse(Interaction::kBuyConfirm));
}

TEST(Interactions, DemandsAreNonNegative) {
  for (const auto& p : interaction_catalog()) {
    EXPECT_GT(p.app_pre_demand, 0.0) << p.name;
    EXPECT_GT(p.app_post_demand, 0.0) << p.name;
    EXPECT_GE(p.db_demand, 0.0) << p.name;
    EXPECT_GT(p.demand_cv, 0.0) << p.name;
  }
}

TEST(Interactions, HeavyBrowsePagesDominateDbDemand) {
  // The database-bound character of the browsing mix comes from these.
  const double best = profile_of(Interaction::kBestSellers).db_demand;
  const double search = profile_of(Interaction::kSearchResults).db_demand;
  for (const auto& p : interaction_catalog()) {
    if (p.request_class == sim::RequestClass::kOrder) {
      EXPECT_LT(p.db_demand, best) << p.name;
    }
  }
  EXPECT_GT(search, 0.03);
}

struct MixSpec {
  const char* name;
  double browse_fraction;
};

// Print only the mix name: the default printer for a const char* member
// includes the pointer value, which would put a load address into the
// discovered ctest name and change it on every discovery run.
void PrintTo(const MixSpec& spec, std::ostream* os) { *os << spec.name; }

class StandardMixTest : public ::testing::TestWithParam<MixSpec> {};

TEST_P(StandardMixTest, StationaryBrowseFractionMatchesSpec) {
  const auto [name, fraction] = GetParam();
  const Mix mix = std::string(name) == "browsing" ? browsing_mix()
                  : std::string(name) == "shopping" ? shopping_mix()
                                                     : ordering_mix();
  EXPECT_NEAR(mix.browse_fraction(), fraction, 0.01) << name;
  EXPECT_EQ(mix.name(), name);
}

INSTANTIATE_TEST_SUITE_P(
    TpcwMixes, StandardMixTest,
    ::testing::Values(MixSpec{"browsing", 0.95}, MixSpec{"shopping", 0.80},
                      MixSpec{"ordering", 0.50}));

TEST(Mix, TransitionRowsAreDistributions) {
  const Mix mix = shopping_mix();
  for (const auto& row : mix.transition()) {
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Mix, NextVisitsAllInteractions) {
  const Mix mix = shopping_mix();
  Rng rng(3);
  std::set<int> seen;
  Interaction cur = mix.initial(rng);
  for (int i = 0; i < 5000; ++i) {
    cur = mix.next(cur, rng);
    seen.insert(static_cast<int>(cur));
  }
  EXPECT_EQ(seen.size(), 14u);
}

TEST(Mix, EmpiricalBrowseFractionMatchesStationary) {
  const Mix mix = ordering_mix();
  Rng rng(5);
  Interaction cur = mix.initial(rng);
  int browse = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    cur = mix.next(cur, rng);
    browse += is_browse(cur);
  }
  EXPECT_NEAR(static_cast<double>(browse) / n, mix.browse_fraction(), 0.02);
}

TEST(Mix, HeavySkewShiftsDbDemand) {
  const Mix base = Mix::with_class_fractions("m", 0.8, 0.0);
  const Mix heavy = Mix::with_class_fractions("m", 0.8, 1.0);
  EXPECT_GT(heavy.mean_tier_demand()[1], base.mean_tier_demand()[1] * 1.15);
  EXPECT_NEAR(heavy.browse_fraction(), 0.8, 0.01);
}

TEST(Mix, BadFractionThrows) {
  EXPECT_THROW(Mix::with_class_fractions("m", 0.0), std::invalid_argument);
  EXPECT_THROW(Mix::with_class_fractions("m", 1.0), std::invalid_argument);
}

TEST(Mix, InterpolationIsBetweenParents) {
  const Mix a = browsing_mix();
  const Mix b = ordering_mix();
  const Mix mid = interpolate(a, b, 0.5, "mid");
  EXPECT_LT(mid.browse_fraction(), a.browse_fraction());
  EXPECT_GT(mid.browse_fraction(), b.browse_fraction());
}

TEST(Mix, InterpolationEndpoints) {
  const Mix a = browsing_mix();
  const Mix b = ordering_mix();
  EXPECT_NEAR(interpolate(a, b, 0.0).browse_fraction(),
              a.browse_fraction(), 1e-9);
  EXPECT_NEAR(interpolate(a, b, 1.0).browse_fraction(),
              b.browse_fraction(), 1e-9);
}

TEST(Mix, OrderingDemandsMoreAppWork) {
  // The root cause of bottleneck shifting: ordering stresses the app
  // tier, browsing the database.
  const auto browse_demand = browsing_mix().mean_tier_demand();
  const auto order_demand = ordering_mix().mean_tier_demand();
  EXPECT_GT(order_demand[0], browse_demand[0]);  // app
  EXPECT_GT(browse_demand[1], order_demand[1]);  // db
}

TEST(RequestFactory, BuildsThreePhaseRequests) {
  RequestFactory f(1);
  const auto req = f.make(Interaction::kBestSellers);
  ASSERT_EQ(req.phases.size(), 3u);
  EXPECT_EQ(req.phases[0].tier, 0);
  EXPECT_EQ(req.phases[1].tier, 1);
  EXPECT_EQ(req.phases[2].tier, 0);
  EXPECT_EQ(req.request_class, sim::RequestClass::kBrowse);
}

TEST(RequestFactory, PureServletPageSkipsDbPhase) {
  RequestFactory f(1);
  const auto req = f.make(Interaction::kSearchRequest);
  EXPECT_EQ(req.phases.size(), 2u);
  for (const auto& ph : req.phases) EXPECT_EQ(ph.tier, 0);
}

TEST(RequestFactory, DeterministicPerSeed) {
  RequestFactory f1(77), f2(77);
  for (int i = 0; i < 20; ++i) {
    const auto a = f1.make(Interaction::kHome);
    const auto b = f2.make(Interaction::kHome);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t p = 0; p < a.phases.size(); ++p)
      EXPECT_DOUBLE_EQ(a.phases[p].demand, b.phases[p].demand);
  }
}

TEST(RequestFactory, DemandsAverageToCatalogMeans) {
  RequestFactory f(5);
  RunningStats db;
  for (int i = 0; i < 20000; ++i)
    db.add(f.make(Interaction::kSearchResults).phases[1].demand);
  EXPECT_NEAR(db.mean(),
              profile_of(Interaction::kSearchResults).db_demand, 0.002);
}

TEST(RequestFactory, IdsAreUnique) {
  RequestFactory f(5);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.insert(f.make(Interaction::kHome).id);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(Request, DemandAccessors) {
  sim::Request r;
  r.phases = {{0, 1.0, 0.0, 1e9}, {1, 2.0, 0.0, 1e9}, {0, 0.5, 0.0, 1e9}};
  EXPECT_DOUBLE_EQ(r.total_demand(), 3.5);
  EXPECT_DOUBLE_EQ(r.demand_on_tier(0), 1.5);
  EXPECT_DOUBLE_EQ(r.demand_on_tier(1), 2.0);
  EXPECT_FALSE(r.completed());
}

// Minimal closed-loop harness: completes every request after a fixed
// simulated service delay.
struct FakeServer {
  sim::EventQueue& eq;
  double service_time;
  void operator()(sim::Request req, Rbe::CompletionFn done) {
    auto shared = std::make_shared<sim::Request>(std::move(req));
    eq.schedule_after(service_time, [this, shared, done] {
      shared->completion_time = eq.now();
      done(*shared);
    });
  }
};

TEST(Rbe, ClosedLoopIssuesAndCompletes) {
  sim::EventQueue eq;
  RequestFactory factory(9);
  Rbe::Config cfg;
  cfg.think_time_mean = 1.0;
  cfg.seed = 4;
  FakeServer server{eq, 0.1};
  Rbe rbe(eq, factory, cfg,
          [&server](sim::Request r, Rbe::CompletionFn d) {
            server(std::move(r), std::move(d));
          });
  rbe.set_mix(std::make_shared<const Mix>(shopping_mix()));
  rbe.set_target_ebs(10);
  eq.run_until(200.0);
  const auto& s = rbe.stats();
  EXPECT_GT(s.completed, 100u);
  EXPECT_LE(s.completed, s.issued);
  // Closed loop: throughput ~= N / (Z + R) = 10 / 1.1.
  EXPECT_NEAR(static_cast<double>(s.completed) / 200.0, 10.0 / 1.1, 1.5);
  EXPECT_NEAR(s.response_time.mean(), 0.1, 1e-9);
}

TEST(Rbe, PopulationShrinksAtNavigationBoundary) {
  sim::EventQueue eq;
  RequestFactory factory(9);
  Rbe::Config cfg;
  cfg.think_time_mean = 0.5;
  FakeServer server{eq, 0.01};
  Rbe rbe(eq, factory, cfg,
          [&server](sim::Request r, Rbe::CompletionFn d) {
            server(std::move(r), std::move(d));
          });
  rbe.set_mix(std::make_shared<const Mix>(shopping_mix()));
  rbe.set_target_ebs(20);
  eq.run_until(20.0);
  EXPECT_EQ(rbe.active_ebs(), 20);
  rbe.set_target_ebs(5);
  eq.run_until(40.0);
  EXPECT_EQ(rbe.active_ebs(), 5);
}

TEST(Rbe, IntervalStatsDrain) {
  sim::EventQueue eq;
  RequestFactory factory(9);
  Rbe::Config cfg;
  cfg.think_time_mean = 0.5;
  FakeServer server{eq, 0.01};
  Rbe rbe(eq, factory, cfg,
          [&server](sim::Request r, Rbe::CompletionFn d) {
            server(std::move(r), std::move(d));
          });
  rbe.set_mix(std::make_shared<const Mix>(shopping_mix()));
  rbe.set_target_ebs(5);
  eq.run_until(50.0);
  const auto first = rbe.drain_interval_stats();
  EXPECT_GT(first.completed, 0u);
  const auto second = rbe.drain_interval_stats();
  EXPECT_EQ(second.completed, 0u);  // drained
}

TEST(Schedule, SteadyHasSingleStep) {
  auto mix = std::make_shared<const Mix>(shopping_mix());
  const auto s = WorkloadSchedule::steady(mix, 50, 100.0);
  EXPECT_EQ(s.steps().size(), 1u);
  EXPECT_DOUBLE_EQ(s.duration(), 100.0);
  EXPECT_EQ(s.ebs_at(50.0), 50);
}

TEST(Schedule, RampStepsMonotonically) {
  auto mix = std::make_shared<const Mix>(shopping_mix());
  const auto s = WorkloadSchedule::ramp(mix, 10, 50, 10, 60.0);
  ASSERT_EQ(s.steps().size(), 5u);
  EXPECT_EQ(s.ebs_at(0.0), 10);
  EXPECT_EQ(s.ebs_at(61.0), 20);
  EXPECT_EQ(s.ebs_at(299.0), 50);
  EXPECT_DOUBLE_EQ(s.duration(), 300.0);
}

TEST(Schedule, RampDownward) {
  auto mix = std::make_shared<const Mix>(shopping_mix());
  const auto s = WorkloadSchedule::ramp(mix, 50, 10, 20, 60.0);
  EXPECT_EQ(s.ebs_at(0.0), 50);
  EXPECT_GT(s.steps().size(), 1u);
}

TEST(Schedule, SpikeAlternates) {
  auto mix = std::make_shared<const Mix>(shopping_mix());
  const auto s = WorkloadSchedule::spike(mix, 10, 100, 100.0, 20.0, 350.0);
  EXPECT_EQ(s.ebs_at(10.0), 10);
  EXPECT_EQ(s.ebs_at(105.0), 100);
  EXPECT_EQ(s.ebs_at(125.0), 10);
  EXPECT_EQ(s.ebs_at(205.0), 100);
}

TEST(Schedule, InterleavedSwitchesMixes) {
  auto a = std::make_shared<const Mix>(browsing_mix());
  auto b = std::make_shared<const Mix>(ordering_mix());
  const auto s = WorkloadSchedule::interleaved(a, 10, b, 20, 100.0, 400.0);
  EXPECT_EQ(s.mix_at(50.0)->name(), "browsing");
  EXPECT_EQ(s.mix_at(150.0)->name(), "ordering");
  EXPECT_EQ(s.ebs_at(150.0), 20);
  EXPECT_EQ(s.mix_at(250.0)->name(), "browsing");
}

TEST(Schedule, ConcatOffsetsTimes) {
  auto mix = std::make_shared<const Mix>(shopping_mix());
  const auto s = WorkloadSchedule::concat(
      "c", {WorkloadSchedule::steady(mix, 10, 100.0),
            WorkloadSchedule::steady(mix, 99, 50.0)});
  EXPECT_DOUBLE_EQ(s.duration(), 150.0);
  EXPECT_EQ(s.ebs_at(99.0), 10);
  EXPECT_EQ(s.ebs_at(101.0), 99);
}

TEST(Schedule, ApplyDrivesRbe) {
  sim::EventQueue eq;
  RequestFactory factory(9);
  FakeServer server{eq, 0.01};
  Rbe rbe(eq, factory, Rbe::Config{},
          [&server](sim::Request r, Rbe::CompletionFn d) {
            server(std::move(r), std::move(d));
          });
  auto mix = std::make_shared<const Mix>(browsing_mix());
  const auto s = WorkloadSchedule::ramp(mix, 5, 15, 5, 10.0);
  s.apply(eq, rbe);
  eq.run_until(1.0);
  EXPECT_EQ(rbe.target_ebs(), 5);
  EXPECT_EQ(rbe.mix().name(), "browsing");
  eq.run_until(25.0);
  EXPECT_EQ(rbe.target_ebs(), 15);
}

TEST(Schedule, EmptyStepsThrow) {
  EXPECT_THROW(WorkloadSchedule("x", {}, 1.0), std::invalid_argument);
}

TEST(Schedule, FirstStepRequiresMix) {
  std::vector<WorkloadSchedule::Step> steps = {{0.0, 5, nullptr}};
  EXPECT_THROW(WorkloadSchedule("x", steps, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace hpcap::tpcw

// -- Open-loop traffic source ---------------------------------------------

#include "tpcw/open_loop.h"

namespace hpcap::tpcw {
namespace {

TEST(OpenLoop, PoissonArrivalRate) {
  sim::EventQueue eq;
  RequestFactory factory(3);
  FakeServer server{eq, 0.001};
  OpenLoopConfig cfg;
  cfg.rate_rps = 40.0;
  OpenLoopSource src(eq, factory, cfg,
                     [&server](sim::Request r, Rbe::CompletionFn d) {
                       server(std::move(r), std::move(d));
                     });
  src.run_until(500.0);
  eq.run_all();
  // 40 req/s for 500 s => 20000 expected, sd ~ sqrt(20000) ~ 141.
  EXPECT_NEAR(static_cast<double>(src.issued()), 20000.0, 600.0);
  EXPECT_EQ(src.issued(), src.completed());
  EXPECT_NEAR(src.response_times().mean(), 0.001, 1e-9);
}

TEST(OpenLoop, RateIndependentOfServiceSpeed) {
  // The defining open-loop property: a slow server does not throttle
  // arrivals.
  sim::EventQueue eq;
  RequestFactory factory(3);
  FakeServer slow{eq, 30.0};  // half-minute responses
  OpenLoopConfig cfg;
  cfg.rate_rps = 25.0;
  OpenLoopSource src(eq, factory, cfg,
                     [&slow](sim::Request r, Rbe::CompletionFn d) {
                       slow(std::move(r), std::move(d));
                     });
  src.run_until(200.0);
  eq.run_all();
  EXPECT_NEAR(static_cast<double>(src.issued()), 5000.0, 350.0);
}

TEST(OpenLoop, MmppBurstsRaiseArrivals) {
  sim::EventQueue eq;
  RequestFactory factory(5);
  OpenLoopConfig quiet;
  quiet.rate_rps = 20.0;
  OpenLoopConfig bursty = quiet;
  bursty.burst_rate_rps = 200.0;
  bursty.mean_quiet_s = 60.0;
  bursty.mean_burst_s = 20.0;
  auto count = [&](const OpenLoopConfig& c) {
    sim::EventQueue q;
    RequestFactory f(5);
    FakeServer s{q, 0.001};
    OpenLoopSource src(q, f, c,
                       [&s](sim::Request r, Rbe::CompletionFn d) {
                         s(std::move(r), std::move(d));
                       });
    src.run_until(600.0);
    q.run_all();
    return src.issued();
  };
  // Expected bursty mean rate: (60*20 + 20*200)/80 = 65 req/s >> 20.
  EXPECT_GT(count(bursty), count(quiet) * 2);
}

TEST(OpenLoop, SessionlessTypesFollowStationary) {
  sim::EventQueue eq;
  RequestFactory factory(7);
  int browse = 0, total = 0;
  OpenLoopConfig cfg;
  cfg.rate_rps = 100.0;
  OpenLoopSource src(eq, factory, cfg,
                     [&](sim::Request r, Rbe::CompletionFn d) {
                       ++total;
                       browse += r.request_class ==
                                 sim::RequestClass::kBrowse;
                       r.completion_time = eq.now();
                       d(r);
                     });
  src.set_mix(std::make_shared<const Mix>(browsing_mix()));
  src.run_until(300.0);
  eq.run_all();
  ASSERT_GT(total, 1000);
  EXPECT_NEAR(static_cast<double>(browse) / total, 0.95, 0.02);
}

TEST(OpenLoop, ValidatesConfig) {
  sim::EventQueue eq;
  RequestFactory factory(1);
  OpenLoopConfig bad;
  bad.rate_rps = 0.0;
  EXPECT_THROW(OpenLoopSource(eq, factory, bad,
                              [](sim::Request, Rbe::CompletionFn) {}),
               std::invalid_argument);
  OpenLoopConfig ok;
  EXPECT_THROW(OpenLoopSource(eq, factory, ok, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace hpcap::tpcw
