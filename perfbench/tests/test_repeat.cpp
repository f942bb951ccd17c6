// Exact-count self-check: a workload run twice with one seed repeats every
// count and every simulated result exactly, and another seed changes them.
#include <gtest/gtest.h>

#include "runner.hpp"

namespace perfbench {
namespace {

using Factory = std::unique_ptr<Workload> (*)(const RunSpec&);

Phase run_once(Factory make, std::uint64_t seed) {
  auto w = make(RunSpec{.seed = seed, .seconds = 1});
  w->build();
  std::vector<std::string> violations;
  Phase ph = run_phase(*w, nullptr, violations);
  for (const auto& v : violations) ADD_FAILURE() << v;
  return ph;
}

void expect_repeatable(Factory make) {
  const Phase a = run_once(make, 11);
  const Phase b = run_once(make, 11);
  const Phase c = run_once(make, 12);
  EXPECT_TRUE(a.same_work(b));
  EXPECT_EQ(a.allocs, b.allocs);
  EXPECT_EQ(a.delta.events, b.delta.events);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
  EXPECT_GT(a.offered, 0u);
  EXPECT_EQ(a.unique, a.offered);
}

TEST(Repeat, PairMinBurst) { expect_repeatable(&make_pair_min_burst); }
TEST(Repeat, PairMtuAuth) { expect_repeatable(&make_pair_mtu_auth); }
TEST(Repeat, MeshChurn) { expect_repeatable(&make_mesh_churn); }

}  // namespace
}  // namespace perfbench
