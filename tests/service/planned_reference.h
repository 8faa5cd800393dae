// In-process reference for range answers served over the wire.
//
// The server plans every range request; one without the planner tag runs
// at recall 1 with the backend on auto.  The planner is deterministic
// (seeded probes, count-based costs), so an in-process snapshot over the
// same data picks the same backend, and its answers — sorted ascending, the
// one wire order — and JoinStats are what the wire must carry.

#ifndef SIMJOIN_TESTS_SERVICE_PLANNED_REFERENCE_H_
#define SIMJOIN_TESTS_SERVICE_PLANNED_REFERENCE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "service/registry.h"
#include "gtest/gtest.h"

namespace simjoin {

class PlannedReference {
 public:
  PlannedReference(const Dataset& data, const EkdbConfig& config, double eps,
                   BackendKind primary = BackendKind::kEkdbFlat)
      : eps_(eps) {
    auto snapshot = IndexSnapshot::Build("ref", data, config, 1, primary);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    snapshot_ = *snapshot;
    auto planned = snapshot_->PlanRange(eps, 1.0, kWireBackendAuto,
                                        RangePlannerOptions{});
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    planned_ = *planned;
  }

  /// Neighbours of `query` in ascending id order; work is added to *stats.
  std::vector<PointId> Query(const float* query,
                             JoinStats* stats = nullptr) const {
    std::vector<PointId> ids;
    EXPECT_TRUE(planned_.backend->RangeQuery(query, eps_, &ids, stats).ok());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  double eps_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
  PlannedRange planned_;
};

}  // namespace simjoin

#endif  // SIMJOIN_TESTS_SERVICE_PLANNED_REFERENCE_H_
