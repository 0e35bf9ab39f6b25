// The benchmark's campaign loop measures the shipped pipeline: traced and
// untraced, it yields the same feature matrix and rankings as
// core::System::RunFieldTest for the same scenario, config and seed, and
// the daemon workload's rankings equal the in-process run's.
#include <gtest/gtest.h>

#include "campaign.hpp"

namespace campaign {
namespace {

using namespace sor;

void ExpectSameAsFieldTest(const CampaignSpec& spec) {
  core::System system;
  Result<core::FieldTestResult> reference = system.RunFieldTest(spec.scenario, spec.config);
  ASSERT_TRUE(reference.ok()) << reference.error().str();
  const core::FieldTestResult& ref = reference.value();
  for (const bool traced : {false, true}) {
    InProcessCampaign campaign(spec);
    const Status s = campaign.Run(traced);
    ASSERT_TRUE(s.ok()) << s.str();
    const CampaignOutput out = campaign.Output();
    ASSERT_EQ(out.matrix.num_places(), ref.matrix.num_places());
    ASSERT_EQ(out.matrix.num_features(), ref.matrix.num_features());
    EXPECT_EQ(out.matrix.place_names(), ref.matrix.place_names());
    for (int i = 0; i < ref.matrix.num_places(); ++i)
      for (int j = 0; j < ref.matrix.num_features(); ++j)
        EXPECT_EQ(out.matrix.at(i, j), ref.matrix.at(i, j)) << "traced=" << traced;
    ASSERT_EQ(out.rankings.size(), ref.rankings.size());
    for (std::size_t p = 0; p < ref.rankings.size(); ++p) {
      EXPECT_EQ(out.rankings[p].first, ref.rankings[p].first);
      EXPECT_EQ(out.rankings[p].second.final_ranking, ref.rankings[p].second.final_ranking)
          << ref.rankings[p].first << " traced=" << traced;
    }
    EXPECT_EQ(out.uploads_stored, ref.server_stats.uploads_stored);

    Report report;
    CheckCampaign(spec, out, report);
    EXPECT_TRUE(report.correct());
  }
}

TEST(CampaignEquivalence, CoffeeShopsMatchRunFieldTest) {
  CampaignSpec spec = FleetChurnSpec(42);
  spec.scenario.phones_per_place = 40;
  ExpectSameAsFieldTest(spec);
}

TEST(CampaignEquivalence, CityMatchesRunFieldTest) {
  ExpectSameAsFieldTest(CitySensingSpec(7));
}

TEST(CampaignEquivalence, TrailsMatchRunFieldTest) {
  CampaignSpec spec = DaemonIngestSpec(42);
  spec.scenario.phones_per_place = 7;
  ExpectSameAsFieldTest(spec);
}

TEST(CampaignEquivalence, DaemonRankingsMatchInProcess) {
  CampaignSpec spec = DaemonIngestSpec(11);
  spec.scenario.phones_per_place = 20;
  InProcessCampaign campaign(spec);
  ASSERT_TRUE(campaign.Run(false).ok());
  const CampaignOutput out = campaign.Output();
  Result<std::string> daemon = DaemonRankingsText(spec, SOR_SERVE_BINARY);
  ASSERT_TRUE(daemon.ok()) << daemon.error().str();
  EXPECT_EQ(daemon.value(), core::RenderRankingsText(out.matrix, out.rankings));
}

}  // namespace
}  // namespace campaign
