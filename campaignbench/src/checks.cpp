// Independent output checks, run after timing. None compares against a
// stored copy of earlier output: each tests the campaign against the
// paper's tables, the world's ground truth, accounting identities, or a
// property of the aggregation that the benchmark computes itself.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>

#include "campaign.hpp"
#include "common/features.hpp"

namespace campaign {

using namespace sor;

namespace {

// How far a measured feature may lie from the world's truth: a share of
// the true value, with an absolute floor near zero. Curvature is estimated
// from GPS fixes and gets a wider share.
double Tolerance(const std::string& feature, double truth) {
  static const std::map<std::string, std::pair<double, double>> kRule = {
      {features::kTemperature, {0.10, 1.5}},
      {features::kHumidity, {0.10, 1.5}},
      {features::kRoughness, {0.10, 0.05}},
      {features::kCurvature, {0.35, 5.0}},
      {features::kAltitudeChange, {0.10, 1.5}},
      {features::kBrightness, {0.10, 15.0}},
      {features::kNoise, {0.10, 0.05}},
      {features::kWifi, {0.10, 1.5}},
  };
  const auto it = kRule.find(feature);
  const auto [share, floor] = it == kRule.end() ? std::pair{0.10, 1.5} : it->second;
  return std::max(floor, share * std::fabs(truth));
}

// Σ_j w_j Σ_i |π(i) − π_j(i)|, computed here rather than by rank::.
double WeightedFootrule(const std::vector<int>& order,
                        const std::vector<rank::Ranking>& inputs,
                        const std::vector<double>& weights) {
  std::vector<int> pos(order.size());
  for (std::size_t p = 0; p < order.size(); ++p) pos[order[p]] = static_cast<int>(p);
  double cost = 0.0;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    double d = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i)
      d += std::abs(pos[i] - inputs[j].position_of(static_cast<int>(i)));
    cost += weights[j] * d;
  }
  return cost;
}

// The order a single-feature profile must produce: the matrix column
// sorted by the profile's preference (ties by place index).
std::vector<int> SortColumn(const rank::FeatureMatrix& h, int feature,
                            const rank::FeaturePreference& pref) {
  const rank::FeatureSpec& spec = h.features()[static_cast<std::size_t>(feature)];
  const auto key = [&](int place) {
    const double v = h.at(place, feature);
    switch (pref.kind) {
      case rank::FeaturePreference::Kind::kValue: return std::fabs(v - pref.value);
      case rank::FeaturePreference::Kind::kMax: return -v;
      case rank::FeaturePreference::Kind::kMin: return v;
      case rank::FeaturePreference::Kind::kDefault: break;
    }
    if (spec.direction == rank::PrefDirection::kMaximize) return -v;
    if (spec.direction == rank::PrefDirection::kMinimize) return v;
    return std::fabs(v - spec.default_preference);
  };
  std::vector<int> order(static_cast<std::size_t>(h.num_places()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return key(a) < key(b); });
  return order;
}

}  // namespace

void CheckCampaign(const CampaignSpec& spec, const CampaignOutput& out,
                   Report& report) {
  const world::Scenario& sc = spec.scenario;
  const rank::FeatureMatrix& h = out.matrix;

  // Every phone joined and finished.
  report.Check(out.joined == out.phones,
               std::to_string(out.joined) + " of " + std::to_string(out.phones) +
                   " phones joined");
  report.Check(out.tasks.size() == out.phones,
               std::to_string(out.tasks.size()) + " tasks for " +
                   std::to_string(out.phones) + " phones");
  std::size_t unfinished = 0;
  std::size_t over_budget = 0;
  std::uint64_t spent = 0;
  for (const server::ParticipationRecord& task : out.tasks) {
    if (task.status != "finished") ++unfinished;
    if (task.budget_left < 0 || task.budget_left > task.budget) ++over_budget;
    spent += static_cast<std::uint64_t>(task.budget - task.budget_left);
  }
  report.Check(unfinished == 0, std::to_string(unfinished) + " tasks not finished");
  report.Check(over_budget == 0, std::to_string(over_budget) + " tasks over budget");

  // Σ(budget − budget_left) == uploads stored == uploads acknowledged, and
  // every stored blob was decoded exactly once.
  report.Check(spent == out.uploads_stored,
               "budget spent " + std::to_string(spent) + " != uploads stored " +
                   std::to_string(out.uploads_stored));
  report.Check(out.uploads_acked == out.uploads_stored,
               "uploads acked " + std::to_string(out.uploads_acked) +
                   " != stored " + std::to_string(out.uploads_stored));
  report.Check(out.uploads_stored > 0, "no uploads stored");
  report.Check(out.raw_data_rows == out.uploads_stored,
               "raw_data rows " + std::to_string(out.raw_data_rows) +
                   " != uploads stored " + std::to_string(out.uploads_stored));
  report.Check(out.blobs_decoded == out.uploads_stored,
               "blobs decoded " + std::to_string(out.blobs_decoded) +
                   " != stored " + std::to_string(out.uploads_stored));

  // Features near the world's ground truth.
  const int places = static_cast<int>(sc.places.size());
  const int m = static_cast<int>(sc.features.size());
  report.Check(h.num_places() == places && h.num_features() == m,
               "feature matrix has the wrong shape");
  if (h.num_places() != places || h.num_features() != m) return;
  for (int i = 0; i < places; ++i) {
    for (int j = 0; j < m; ++j) {
      const double want = spec.truth[static_cast<std::size_t>(i * m + j)];
      const double got = h.at(i, j);
      const std::string& name = sc.features[static_cast<std::size_t>(j)].name;
      report.Check(std::fabs(got - want) <= Tolerance(name, want),
                   sc.places[static_cast<std::size_t>(i)].name + " " + name + " = " +
                       std::to_string(got) + ", truth " + std::to_string(want));
    }
  }

  report.Check(out.rankings.size() == sc.profiles.size(),
               "rankings for " + std::to_string(out.rankings.size()) + " of " +
                   std::to_string(sc.profiles.size()) + " profiles");
  if (out.rankings.size() != sc.profiles.size()) return;
  for (std::size_t p = 0; p < sc.profiles.size(); ++p) {
    const rank::UserProfile& profile = sc.profiles[p];
    const rank::RankingOutcome& outcome = out.rankings[p].second;
    const std::vector<int>& order = outcome.final_ranking.order();

    // The aggregate is a permutation of the places ...
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> identity(static_cast<std::size_t>(places));
    std::iota(identity.begin(), identity.end(), 0);
    report.Check(sorted == identity, profile.name + ": ranking is not a permutation");
    if (sorted != identity) continue;

    // ... whose weighted footrule cost is no more than any input's.
    const double cost = WeightedFootrule(order, outcome.individual, outcome.weights);
    for (std::size_t j = 0; j < outcome.individual.size(); ++j) {
      const double input_cost = WeightedFootrule(outcome.individual[j].order(),
                                                 outcome.individual, outcome.weights);
      report.Check(cost <= input_cost + 1e-9 * std::max(1.0, input_cost),
                   profile.name + ": aggregate footrule " + std::to_string(cost) +
                       " > feature " + std::to_string(j) + "'s " +
                       std::to_string(input_cost));
    }

    // The paper's table, where the scenario is the paper's.
    if (!spec.paper_rankings.empty()) {
      report.Check(outcome.OrderedNames(h) == spec.paper_rankings[p],
                   profile.name + ": ranking differs from the paper's table");
    }

    // A profile that weighs one feature ranks exactly by that column.
    int weighted = 0;
    int feature = -1;
    for (int j = 0; j < m; ++j) {
      if (profile.prefs[static_cast<std::size_t>(j)].weight > 0) {
        ++weighted;
        feature = j;
      }
    }
    if (weighted == 1) {
      report.Check(order == SortColumn(h, feature,
                                       profile.prefs[static_cast<std::size_t>(feature)]),
                   profile.name + ": single-feature ranking differs from the column sort");
    }
  }
}

}  // namespace campaign
