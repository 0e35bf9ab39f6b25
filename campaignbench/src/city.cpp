// city_sensing's input: a seeded synthetic city of coffee shops, each with
// its own ground-truth level per feature, and a set of user profiles.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "campaign.hpp"

namespace campaign {

using namespace sor;

namespace {

constexpr int kShops = 100;
constexpr int kPhonesPerShop = 8;

world::Signal Env(double base, double drift, double noise) {
  world::Signal s;
  s.base = base;
  s.drift_amp = drift;
  s.drift_period_s = 5400.0;
  s.noise_stddev = noise;
  return s;
}

// kShops evenly spaced levels in [lo, hi], dealt to the shops in a seeded
// order: every shop gets a distinct level of every feature.
std::vector<double> DealLevels(double lo, double hi, std::mt19937_64& rng) {
  std::vector<double> levels(kShops);
  for (int i = 0; i < kShops; ++i)
    levels[i] = lo + (hi - lo) * static_cast<double>(i) / (kShops - 1);
  std::shuffle(levels.begin(), levels.end(), rng);
  return levels;
}

}  // namespace

CampaignSpec CitySensingSpec(std::uint64_t seed) {
  CampaignSpec spec;
  const world::Scenario coffee = world::MakeCoffeeShopScenario();
  world::Scenario& city = spec.scenario;
  city.category = world::PlaceCategory::kCoffeeShop;
  city.features = coffee.features;  // temperature, brightness, noise, wifi
  city.phones_per_place = kPhonesPerShop;
  city.period_s = 10'800.0;  // the paper's 3-hour field test

  std::mt19937_64 rng(seed ^ 0xc17f5eedULL);
  const std::vector<double> temp = DealLevels(64.0, 80.0, rng);
  const std::vector<double> light = DealLevels(150.0, 1000.0, rng);
  const std::vector<double> noise = DealLevels(0.15, 0.65, rng);
  const std::vector<double> wifi = DealLevels(-85.0, -50.0, rng);
  for (int i = 0; i < kShops; ++i) {
    world::PlaceModel p;
    p.id = PlaceId{static_cast<std::uint64_t>(1000 + i)};
    char name[32];
    std::snprintf(name, sizeof(name), "Shop %03d", i);
    p.name = name;
    p.category = world::PlaceCategory::kCoffeeShop;
    // A 10 × 10 grid about 330 m apart: no shop lies within another's
    // 60 m participation radius.
    p.center = GeoPoint{43.00 + 0.003 * (i / 10), -76.20 + 0.004 * (i % 10),
                        120.0};
    p.radius_m = 60.0;
    p.surface_roughness = 0.02;
    p.signals[SensorKind::kDroneTemperature] = Env(temp[i], 0.5, 0.4);
    p.signals[SensorKind::kDroneLight] = Env(light[i], 40.0, 25.0);
    p.signals[SensorKind::kMicrophone] = Env(noise[i], 0.03, 0.03);
    p.signals[SensorKind::kWifi] = Env(wifi[i], 1.0, 2.5);
    p.signals[SensorKind::kDroneHumidity] = Env(35.0, 2.0, 1.5);
    city.places.push_back(std::move(p));
    spec.truth.insert(spec.truth.end(), {temp[i], light[i], noise[i], wifi[i]});
  }

  // Ten profiles: the paper's two, one single-feature profile per feature
  // (checked against a plain sort of that column), and four seeded mixes.
  using rank::FeaturePreference;
  city.profiles = coffee.profiles;
  const auto single = [&city](const char* name, int feature,
                              FeaturePreference pref) {
    rank::UserProfile p;
    p.name = name;
    p.prefs.assign(city.features.size(), FeaturePreference::DontCare());
    p.prefs[static_cast<std::size_t>(feature)] = pref;
    city.profiles.push_back(std::move(p));
  };
  single("Warmth", 0, FeaturePreference::Prefer(73.0, 3));
  single("Brightest", 1, FeaturePreference::PreferMax(4));
  single("Quietest", 2, FeaturePreference::PreferMin(5));
  single("BestWifi", 3, FeaturePreference::PreferMax(2));
  std::uniform_int_distribution<int> weight(1, 5);
  for (int m = 0; m < 4; ++m) {
    rank::UserProfile p;
    p.name = "Mix" + std::to_string(m);
    p.prefs = {FeaturePreference::Prefer(70.0 + 2.0 * m, weight(rng)),
               m % 2 == 0 ? FeaturePreference::PreferMax(weight(rng))
                          : FeaturePreference::PreferMin(weight(rng)),
               FeaturePreference::PreferMin(weight(rng)),
               FeaturePreference::PreferMax(weight(rng))};
    city.profiles.push_back(std::move(p));
  }

  spec.config.budget_per_user = 40;
  spec.config.seed = seed;
  return spec;
}

}  // namespace campaign
