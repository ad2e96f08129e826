// Pins the serving engine's zero-allocation steady state: dispatching an
// admitted request allocates nothing. The whole global operator new
// family is replaced with a counting wrapper (the nothrow flavours too —
// mixing a default nothrow new with replaced deletes trips ASan's
// alloc-dealloc matching), and a run over N requests is compared with a
// run over 2N requests whose first half is the identical stream: if the
// marginal request cost were nonzero the counts would differ by at least
// N, so exact equality pins the per-request cost at zero.
//
// The fixed per-run costs that remain — engine construction, the
// reserve() calls, arena slabs for the peak-live instance set, the step
// table — are identical between the two runs by design: same fleet, same
// bounded admission depth (both streams saturate it early), same routes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "mars/plan/engines.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/workload.h"
#include "mars/topology/presets.h"

static std::atomic<long long> g_allocation_count{0};

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace mars::serve {
namespace {

class ZeroAllocTest : public ::testing::Test {
 protected:
  ZeroAllocTest()
      : topo_(topology::h2h_cloud(4, gbps(4.0), 4)),
        designs_(accel::h2h_designs()) {
    const plan::BaselineEngine baseline;
    for (const char* name : {"alexnet", "resnet18"}) {
      services_.push_back(std::make_unique<ModelService>(
          name, topo_, designs_, /*adaptive=*/false, baseline));
      refs_.push_back(services_.back().get());
    }
  }

  topology::Topology topo_;
  accel::DesignRegistry designs_;
  std::vector<std::unique_ptr<ModelService>> services_;
  std::vector<const ModelService*> refs_;
};

TEST_F(ZeroAllocTest, SteadyStateDispatchAllocatesNothingPerRequest) {
  // `none` batching (the allocation-free immediate-dispatch path) with
  // bounded admission: the stream saturates shed:4 almost immediately,
  // so both runs peak at the same live-instance set and arena footprint.
  const PolicySpec policy = PolicySpec::parse("shed:4");
  SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  const OnlineScheduler scheduler(topo_, refs_, options);

  // Same seed and rate: the first half of the long stream is bit-identical
  // to the short stream, so the long run replays the short one and then
  // keeps going in steady state.
  const std::vector<double> mix = {1.0, 1.0};
  const std::vector<Request> stream_n =
      poisson_arrivals(mix, 2000.0, Seconds(1.0), 11);
  const std::vector<Request> stream_2n =
      poisson_arrivals(mix, 2000.0, Seconds(2.0), 11);
  ASSERT_GT(stream_n.size(), 500u);
  ASSERT_GT(stream_2n.size(), stream_n.size() + 500u);

  const auto measure = [&](const std::vector<Request>& arrivals,
                           std::size_t* completed) {
    const long long before =
        g_allocation_count.load(std::memory_order_relaxed);
    const ServeResult result = scheduler.run(arrivals);
    const long long after = g_allocation_count.load(std::memory_order_relaxed);
    *completed = result.completed.size();
    return after - before;
  };

  // Warm-up: gtest/stdlib one-time lazy allocations land here, not in
  // the measured runs.
  std::size_t completed = 0;
  measure(stream_n, &completed);

  std::size_t completed_n = 0;
  std::size_t completed_2n = 0;
  const long long cost_n = measure(stream_n, &completed_n);
  const long long cost_2n = measure(stream_2n, &completed_2n);

  // The runs did real work (the pin is not vacuous) and the engine does
  // allocate its fixed setup...
  EXPECT_GT(completed_n, 50u);
  EXPECT_GT(completed_2n, completed_n);
  EXPECT_GT(cost_n, 0);
  // ...but doubling the request stream changes the allocation count not
  // at all: zero allocations per admitted (or shed) request.
  EXPECT_EQ(cost_n, cost_2n);
}

}  // namespace
}  // namespace mars::serve
